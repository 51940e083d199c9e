"""Serving subsystem: micro-batched recall behind an HTTP front end.

PR 1 made recall batch-first — a ``(B, features)`` batch through one
amortised crossbar solve runs ~200x faster than the per-sample loop —
but that speed was only reachable from offline ``evaluate()`` sweeps.
This package is the request-lifecycle layer that brings it to *online*
traffic, where callers arrive one image at a time:

``service``
    :class:`~repro.serving.service.RecognitionService` — the
    micro-batching front end.  Concurrent submissions (one or many rows
    each) land in a bounded queue as one entry each; a batcher thread
    cuts contiguous row ranges of them (segments) into batches of up to
    ``max_batch_size`` rows, waiting at most ``max_wait`` after the
    oldest queued arrival, and each segment resolves with one outcome —
    its :class:`~repro.core.amm.BatchRecognitionResult` slice or an
    error (``submit``/``submit_many`` keep a per-row-future API on top
    of the same queue).  A full queue
    rejects immediately with
    :class:`~repro.serving.service.BackpressureError` (HTTP 429) rather
    than buffering without bound.

``workers``
    :class:`~repro.serving.workers.ShardedWorkerPool` — the dispatch
    adapter between the micro-batcher and the pluggable execution
    backends of :mod:`repro.backends`.  ``backend="serial"`` (default)
    runs each micro-batch on one pre-factorised engine whose BLAS calls
    already use the host's cores; ``"fleet"`` runs them on worker agents
    over TCP (``workers=N`` spawns N local agents, each its own
    interpreter; ``worker_addresses`` adopts running ones).  Every
    micro-batch runs the seeded recall, so a result is a pure function
    of ``(module, codes, seed)`` whichever backend serves it.
    Deadline-expired segments are dropped here, before any engine time
    is spent.

``protocol`` / ``aio`` / ``client``
    One front end over a shared request-protocol module.
    :mod:`~repro.serving.aio` serves the JSON API (``POST /recognise``,
    ``GET /healthz``, ``GET /stats``) from a single asyncio event loop
    (no thread-per-connection), plus a native binary endpoint on a
    second port, on by default, speaking the :mod:`repro.backends.wire`
    framing — raw little-endian arrays instead of per-row JSON.  Both
    endpoints parse, admit and classify through
    :mod:`~repro.serving.protocol`, so semantics (error taxonomy,
    priorities, quotas, deadlines, body limits) are identical by
    construction.  The client side pairs a keep-alive JSON client with
    :class:`~repro.serving.client.BinaryRecognitionClient` and the
    :func:`~repro.serving.client.run_load` /
    :func:`~repro.serving.client.run_connection_load` load generators
    behind ``python -m repro serve`` and ``python -m repro loadtest``.
    Large multi-image requests can set ``"stream": true`` for a chunked
    NDJSON response: one line per row as its segment resolves, per-row
    error objects on partial failure, and a terminal summary line —
    served with bounded buffering however many rows the request holds.

``quotas``
    :class:`~repro.serving.quotas.ClientQuotas` — per-``client_id``
    token-bucket admission (``rate`` / ``burst``) plus an in-flight cap
    (``max_inflight``), checked in the submit path before a request
    occupies queue capacity.  Denials map to HTTP 429 with a distinct
    ``requests.quota_rejected`` counter so noisy tenants are visible.

``metrics``
    :class:`~repro.serving.metrics.ServiceMetrics` — queue depth,
    batch-fill histogram (dispatched live sizes), latency percentiles
    (overall and per priority level), per-client counters and
    throughput/shedding/quota counters, surfaced verbatim through
    ``/stats``.

Admission priorities
--------------------

Every request carries a ``priority`` (0–9, default 0).  The pending
queue drains highest-priority-first (FIFO within a level), the worker
pool's dispatch slots are consumed in the same order, and when the
bounded queue is full an arriving request sheds queued *lower*-priority
submissions whole (their rows fail with ``BackpressureError``, counted under
``requests.shed``) before it is ever rejected itself.  Priorities
reorder and shed work; they never change answers — the determinism
contract below is priority-independent.

Determinism contract
--------------------

Every request carries a seed naming its private random substream.  The
service recalls through
:meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`,
which draws input-variation noise and WTA latch offsets from per-request
``SeedSequence`` substreams and mutates no module state — so a request's
result is a pure function of ``(module, codes, seed)``, independent of
arrival order, micro-batch composition and worker count
(``tests/serving/test_service_determinism.py``).  Stochastic DWN
switching is inherently draw-order dependent and is refused at service
construction.

Quickstart
----------

>>> from repro import build_pipeline, load_default_dataset
>>> from repro.serving import RecognitionService, start_async_server, RecognitionClient
>>> dataset = load_default_dataset(seed=7)
>>> pipeline = build_pipeline(dataset, seed=7)
>>> service = RecognitionService(pipeline.amm, max_batch_size=64, max_wait=0.002)
>>> server = start_async_server(service, port=0)
>>> client = RecognitionClient("127.0.0.1", server.port)
>>> client.recognise(pipeline.extractor.extract_codes(dataset.test_images[0]))["winner"]
0
"""

from repro.serving.aio import (
    AsyncRecognitionServer,
    start_async_server,
    stop_async_server,
)
from repro.serving.client import (
    BinaryBatchResult,
    BinaryRecognitionClient,
    LoadReport,
    RecognitionClient,
    ServerError,
    run_connection_load,
    run_load,
)
from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.serving.metrics import ServiceMetrics, latency_summary, percentile
from repro.serving.protocol import result_to_json, row_error_to_json
from repro.serving.quotas import ANONYMOUS_CLIENT, ClientQuotas, QuotaConfig
from repro.serving.service import (
    DEFAULT_PRIORITY,
    MAX_PRIORITY,
    MIN_PRIORITY,
    RecognitionService,
)
from repro.serving.workers import FutureSubmission, ShardedWorkerPool, Submission

__all__ = [
    "ANONYMOUS_CLIENT",
    "AsyncRecognitionServer",
    "BackpressureError",
    "BinaryBatchResult",
    "BinaryRecognitionClient",
    "ClientQuotas",
    "DEFAULT_PRIORITY",
    "DeadlineExceededError",
    "FutureSubmission",
    "LoadReport",
    "MAX_PRIORITY",
    "MIN_PRIORITY",
    "QuotaConfig",
    "QuotaExceededError",
    "RecognitionClient",
    "RecognitionService",
    "ServerError",
    "ServiceClosedError",
    "ServiceMetrics",
    "ShardedWorkerPool",
    "Submission",
    "latency_summary",
    "percentile",
    "result_to_json",
    "row_error_to_json",
    "run_connection_load",
    "run_load",
    "start_async_server",
    "stop_async_server",
]
