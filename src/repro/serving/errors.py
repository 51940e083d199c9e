"""Error taxonomy of the recognition service.

One module with no intra-package imports, so every serving layer (the
service front end, the worker pool, the HTTP server) can raise and catch
the same exceptions without circular imports.  The HTTP mapping is part
of each error's contract:

===============================  ======  ==============================
Error                            HTTP    Meaning
===============================  ======  ==============================
``ValueError`` (validation)      400     malformed / never-admittable
:class:`QuotaExceededError`      429     per-client quota; distinct
                                         ``requests.quota_rejected``
:class:`BackpressureError`       429     shared queue full (or shed)
:class:`ServiceClosedError`      503     service shut down
``WorkerCrashedError``           503     no worker replica could finish
                                         the batch; safe to retry
:class:`DeadlineExceededError`   504     expired in queue, undispatched
===============================  ======  ==============================
"""

from __future__ import annotations

from typing import Optional


class BackpressureError(RuntimeError):
    """The shared request queue is full; the caller should retry later.

    Raised synchronously by ``RecognitionService.submit*`` so that an
    overloaded service sheds load at the front door with a clean error
    (mapped to HTTP 429 by the server) instead of deadlocking or growing
    its queue without bound.  Also the outcome of queued low-priority
    submissions that were *shed* to admit higher-priority
    traffic (counted separately under ``requests.shed``).
    """


class QuotaExceededError(RuntimeError):
    """The caller's per-client quota denied the request.

    Distinct from :class:`BackpressureError`: the *service* has capacity
    but this ``client_id`` has spent its token-bucket budget (``rate`` /
    ``burst``) or holds too many requests in flight (``max_inflight``).
    Mapped to HTTP 429 with a ``Retry-After`` hint and counted under
    ``requests.quota_rejected`` (never ``requests.rejected``) so noisy
    neighbours are visible in ``GET /stats``.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        #: Seconds until the token bucket can refill enough to admit a
        #: request of the same size (``None`` for inflight-cap denials,
        #: which clear as soon as earlier requests resolve).
        self.retry_after = retry_after


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before it could be dispatched.

    Requests may carry a ``timeout_ms`` budget; one that is still queued
    when the budget runs out is dropped *before* dispatch (no engine time
    is spent on an answer nobody is waiting for) and resolves with this
    error — mapped to HTTP 504 by the server and counted under
    ``requests.expired`` in ``GET /stats``.
    """


class ServiceClosedError(RuntimeError):
    """The service has been closed and accepts no further requests."""
