"""Per-client admission control: token buckets and in-flight caps.

Multi-tenant traffic needs more than the service-wide bounded queue: one
chatty client can fill the whole queue and starve everyone else while
the service itself looks healthy.  :class:`ClientQuotas` gives every
``client_id`` its own budget, checked at admission time (inside the
service's submit path, before a request occupies queue capacity):

* a **token bucket** — ``burst`` tokens of capacity refilled at ``rate``
  tokens per second, one token per code vector (row), so a multi-image
  request spends as many tokens as rows it submits; and
* an **in-flight cap** — at most ``max_inflight`` rows queued or being
  solved per client at any instant (released as each row settles,
  whatever the outcome, or as soon as its abandoned request is
  cancelled).

Denials raise :class:`~repro.serving.errors.QuotaExceededError`, which
the HTTP front end maps to 429 with a ``Retry-After`` hint and which is
counted under ``requests.quota_rejected`` — distinct from shared-queue
backpressure — so per-client throttling is visible in ``GET /stats``.

Requests that carry no ``client_id`` share the :data:`ANONYMOUS_CLIENT`
bucket: anonymous traffic as a whole is one tenant, which keeps the
quota table bounded under client-id-less load.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.serving.errors import QuotaExceededError
from repro.utils.validation import check_integer

#: Bucket shared by every request that does not name a ``client_id``.
ANONYMOUS_CLIENT = "anonymous"


def validate_client_id(client_id: Optional[str]) -> Optional[str]:
    """The one ``client_id`` validity rule, shared by the HTTP handler
    and the service front end so the two layers cannot diverge."""
    if client_id is None:
        return None
    if not isinstance(client_id, str) or not client_id or len(client_id) > 128:
        raise ValueError("client_id must be a non-empty string of <= 128 chars")
    return client_id


@dataclass(frozen=True)
class QuotaConfig:
    """Per-client admission budget.

    Parameters
    ----------
    rate:
        Sustained admission rate in rows (code vectors) per second —
        the token-bucket refill rate.  ``math.inf`` disables the rate
        limit while keeping the in-flight cap.
    burst:
        Bucket capacity: the largest row burst a silent client can spend
        at once, and the hard upper bound on a single buffered request's
        size under quota (streaming requests drain in windows of at most
        ``burst`` rows instead).
    max_inflight:
        Most rows one client may have queued or in flight at once;
        ``None`` disables the cap.
    """

    rate: float
    burst: int
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0 rows/s, got {self.rate}")
        check_integer("burst", self.burst, minimum=1)
        if self.max_inflight is not None:
            check_integer("max_inflight", self.max_inflight, minimum=1)


class _Bucket:
    """Mutable per-client state: available tokens and in-flight rows."""

    __slots__ = ("tokens", "refilled_at", "inflight")

    def __init__(self, tokens: float, now: float) -> None:
        self.tokens = tokens
        self.refilled_at = now
        self.inflight = 0


#: Bucket-table sweep threshold: once the table holds more clients than
#: this, admission prunes buckets that are idle (no rows in flight) and
#: fully refilled — such a bucket is indistinguishable from a fresh one,
#: so dropping it is lossless.  Bounds the memory a caller spraying
#: unique client ids can pin (the companion metrics table has its own
#: ``MAX_TRACKED_CLIENTS`` cap).
PRUNE_TABLE_SIZE = 1024


class ClientQuotas:
    """Thread-safe token-bucket admission table keyed by ``client_id``.

    Parameters
    ----------
    config:
        The budget applied to every client (per-client overrides belong
        in a config layer above this one).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(self, config: QuotaConfig, clock=time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, _Bucket] = {}

    def _prune(self, now: float) -> None:
        """Drop buckets whose state a fresh bucket would reproduce."""
        for client, bucket in list(self._buckets.items()):
            self._refill(bucket, now)
            if bucket.inflight == 0 and bucket.tokens >= self.config.burst:
                del self._buckets[client]

    @property
    def burst(self) -> int:
        """Bucket capacity in rows (the largest single admission)."""
        return self.config.burst

    def _bucket(self, client_id: str, now: float) -> _Bucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = _Bucket(float(self.config.burst), now)
            self._buckets[client_id] = bucket
        return bucket

    def _refill(self, bucket: _Bucket, now: float) -> None:
        elapsed = max(0.0, now - bucket.refilled_at)
        bucket.refilled_at = now
        if math.isinf(self.config.rate):
            bucket.tokens = float(self.config.burst)
        else:
            bucket.tokens = min(
                float(self.config.burst), bucket.tokens + elapsed * self.config.rate
            )

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def admit(self, client_id: Optional[str], rows: int) -> None:
        """Spend ``rows`` tokens and claim ``rows`` in-flight slots.

        Raises :class:`QuotaExceededError` (leaving the budget untouched)
        when the client lacks the tokens or the in-flight headroom.  A
        request larger than ``burst`` can never be admitted whole and
        raises ``ValueError`` (a permanent HTTP 400, not a retry-later
        429) — the streaming path submits in sub-``burst`` windows
        instead of tripping this.
        """
        check_integer("rows", rows, minimum=1)
        if rows > self.config.burst:
            raise ValueError(
                f"request holds {rows} rows but the client quota admits bursts "
                f"of at most {self.config.burst}; split or stream the request"
            )
        client = ANONYMOUS_CLIENT if client_id is None else client_id
        with self._lock:
            now = self._clock()
            if len(self._buckets) > PRUNE_TABLE_SIZE:
                self._prune(now)
            bucket = self._bucket(client, now)
            self._refill(bucket, now)
            cap = self.config.max_inflight
            if cap is not None and bucket.inflight + rows > cap:
                raise QuotaExceededError(
                    f"client {client!r} has {bucket.inflight} rows in flight; "
                    f"admitting {rows} more would exceed max_inflight={cap}"
                )
            if bucket.tokens < rows:
                deficit = rows - bucket.tokens
                retry_after = (
                    None if math.isinf(self.config.rate) else deficit / self.config.rate
                )
                raise QuotaExceededError(
                    f"client {client!r} is out of quota tokens "
                    f"({bucket.tokens:.1f} available, {rows} needed at "
                    f"{self.config.rate} rows/s)",
                    retry_after=retry_after,
                )
            bucket.tokens -= rows
            bucket.inflight += rows

    def cancel_admission(self, client_id: Optional[str], rows: int) -> None:
        """Undo a full admission whose rows never entered the queue.

        Returns the tokens and releases the in-flight slots, so a client
        is not charged when a later (shared-queue) check rejected the
        same request.
        """
        client = ANONYMOUS_CLIENT if client_id is None else client_id
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                return
            bucket.tokens = min(float(self.config.burst), bucket.tokens + rows)
            bucket.inflight = max(0, bucket.inflight - rows)

    def refund_tokens(self, client_id: Optional[str], rows: int) -> None:
        """Return tokens for admitted rows that were shed before service.

        The in-flight slots are *not* touched here — they are released
        as the shed rows settle (with the shed error).
        """
        client = ANONYMOUS_CLIENT if client_id is None else client_id
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is not None:
                bucket.tokens = min(float(self.config.burst), bucket.tokens + rows)

    def release(self, client_id: Optional[str], rows: int = 1) -> None:
        """Release in-flight slots as rows settle (or are cancelled)."""
        client = ANONYMOUS_CLIENT if client_id is None else client_id
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is not None:
                bucket.inflight = max(0, bucket.inflight - rows)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def inflight(self, client_id: Optional[str]) -> int:
        """Rows currently queued or being solved for ``client_id``."""
        client = ANONYMOUS_CLIENT if client_id is None else client_id
        with self._lock:
            bucket = self._buckets.get(client)
            return 0 if bucket is None else bucket.inflight

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-client budget state (tokens after refill, rows in flight)."""
        with self._lock:
            now = self._clock()
            state = {}
            for client, bucket in self._buckets.items():
                self._refill(bucket, now)
                state[client] = {
                    "tokens": round(bucket.tokens, 3),
                    "inflight": bucket.inflight,
                }
            return state
