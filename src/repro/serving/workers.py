"""Dispatch adapter between the micro-batcher and the execution backends.

PR 2's sharded thread pool lived here; the execution strategy has since
been extracted into :mod:`repro.backends` (serial / threads / processes,
chosen by name through the registry) so offline sweeps can use it too.
What remains is the *serving* half of the old pool, everything about
request lifecycle rather than execution:

* a **bounded, priority-ordered dispatch queue**
  (``DISPATCH_SLOTS_PER_WORKER`` slots per execution unit): when every
  slot is busy the micro-batcher blocks on
  :meth:`~ShardedWorkerPool.dispatch`, the service queue fills, and the
  front end starts rejecting with a clean backpressure error.  Queued
  batches are consumed highest-priority-first (FIFO within a priority),
  so a high-priority batch overtakes low-priority batches that are still
  waiting for a dispatch slot;
* **dispatcher threads** (one per execution unit, so whole micro-batches
  pipeline while the backend shards each of them internally) that resolve
  every request's future with its own result slice, record queue-to-
  response latencies per priority and client, and map deadline-expired
  requests to :class:`~repro.serving.errors.DeadlineExceededError`
  *before* the batch reaches the backend;
* **error containment**: a failed batch resolves every caller's future
  with the error (retryable :class:`~repro.backends.base.WorkerCrashedError`
  included — the process backend has already respawned the worker by the
  time it surfaces) and the dispatcher thread survives to serve the next
  batch.

Closing is race-free: :meth:`~ShardedWorkerPool.dispatch` and
:meth:`~ShardedWorkerPool.close` serialise on one lock, so a batch can
never slip into the queue between the closed check and the sentinel
drain — a dispatch that loses the race fails every future in its batch
with :class:`~repro.serving.errors.ServiceClosedError` (and raises it)
instead of leaving callers hanging on futures nobody will resolve.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.backends.base import RecallBackend
from repro.backends.registry import resolve_backend
from repro.core.amm import AssociativeMemoryModule
from repro.serving.errors import DeadlineExceededError, ServiceClosedError
from repro.serving.metrics import ServiceMetrics
from repro.utils.validation import check_integer

#: Priority-queue rank of the shutdown sentinel — sorts after every real
#: batch (whose rank is ``-priority``), so queued work drains first.
_SENTINEL_RANK = float("inf")


@dataclass
class PendingRequest:
    """One queued recall request awaiting a worker.

    ``future`` resolves to the request's scalar
    :class:`~repro.core.amm.RecognitionResult` (or to the error that
    prevented it).  ``enqueued_at`` anchors the queue-to-response latency
    reported through the metrics; ``deadline`` (monotonic seconds, or
    ``None``) is the instant after which the request must not be
    dispatched.  ``priority`` (higher dispatches first) and ``client_id``
    segment the latency/throughput metrics and drive admission control in
    the service front end.
    """

    codes: np.ndarray
    seed: int
    future: concurrent.futures.Future
    enqueued_at: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None
    priority: int = 0
    client_id: Optional[str] = None
    #: Rows admitted by one ``submit_many`` call share a group id, so
    #: priority shedding evicts whole submissions — never a partial
    #: multi-image request whose surviving rows the caller would discard.
    group: Optional[int] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


class ShardedWorkerPool:
    """Backend-agnostic micro-batch dispatcher with bounded work in flight.

    Parameters
    ----------
    amm:
        The served module; the backend builds its engine replicas from
        its network.  Must use deterministic neurons — the seeded recall
        path refuses stochastic DWN.
    workers:
        Execution units requested from the backend (engine replicas /
        threads / processes) and concurrent dispatcher threads.
    metrics:
        Sink for completion counts and latencies.
    legacy_per_sample:
        Dispatch every request through the legacy per-sample sparse solve
        instead of a backend (benchmark baseline only).
    min_shard_size:
        Forwarded to the backend: a micro-batch is split across execution
        units only when the resulting shards would hold at least this
        many requests each.
    backend:
        A :mod:`repro.backends` registry name (``"serial"``,
        ``"threads"``, ``"processes"``, ``"remote"``) — the pool then
        owns and closes the created backend — or an already-prepared
        :class:`~repro.backends.base.RecallBackend` shared with other
        consumers (left open on :meth:`close`).
    backend_options:
        Extra keyword options forwarded to the backend factory when
        ``backend`` is a name (e.g. ``worker_addresses`` for the remote
        backend); ignored for pre-built instances.
    """

    #: Dispatch slots per worker; bounds work-in-flight so a saturated
    #: pool exerts backpressure on the micro-batcher instead of buffering.
    DISPATCH_SLOTS_PER_WORKER = 2

    def __init__(
        self,
        amm: AssociativeMemoryModule,
        workers: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        legacy_per_sample: bool = False,
        min_shard_size: int = 16,
        backend: Union[str, RecallBackend, None] = "threads",
        backend_options: Optional[dict] = None,
    ) -> None:
        check_integer("workers", workers, minimum=1)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        self.amm = amm
        self.metrics = metrics or ServiceMetrics()
        self.legacy_per_sample = legacy_per_sample
        # The legacy path runs amm.recognise(), which draws from the
        # module's shared numpy Generator and mutates neuron state —
        # neither is thread-safe, so per-sample recalls serialise.
        self._legacy_lock = threading.Lock()
        if backend is None:
            backend = "threads"
        if legacy_per_sample and isinstance(backend, str):
            # The legacy path never touches a backend (every request is
            # one locked amm.recognise() sparse solve); keep an unprepared
            # serial backend for the capability surface instead of paying
            # for engine replicas or worker processes nothing will use.
            backend = "serial"
        # Explicit backend_options win over the pool's defaults (a caller
        # tuning min_shard_size for a remote deployment should not
        # collide with the forwarded pool default).
        options = {"min_shard_size": min_shard_size}
        options.update(backend_options or {})
        self.backend, self._owns_backend = resolve_backend(
            backend, amm, workers=workers, **options
        )
        if not legacy_per_sample:
            self.backend.prepare()
        self.workers = max(1, self.backend.capabilities().workers)
        # Highest-priority batch first; FIFO within a priority via the
        # monotonic sequence number (which also keeps the never-compared
        # batch payloads out of tuple ordering).
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue(
            maxsize=self.workers * self.DISPATCH_SLOTS_PER_WORKER
        )
        self._sequence = itertools.count()
        self._lifecycle = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"dispatcher-{index}", daemon=True
            )
            for index in range(self.workers)
        ]
        self._closed = False
        for thread in self._threads:
            thread.start()

    def __len__(self) -> int:
        return self.workers

    @property
    def min_shard_size(self) -> int:
        """The backend's live sharding threshold (1 when it never shards)."""
        return getattr(self.backend, "min_shard_size", 1)

    @min_shard_size.setter
    def min_shard_size(self, value: int) -> None:
        # Sharding lives in the backend now; keep the pre-refactor pool
        # attribute as a delegating alias rather than a silent no-op.
        check_integer("min_shard_size", value, minimum=1)
        if not hasattr(self.backend, "min_shard_size"):
            raise AttributeError(
                f"backend {self.backend.capabilities().name!r} does not shard"
            )
        self.backend.min_shard_size = value

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, batch: List[PendingRequest]) -> None:
        """Hand one micro-batch to a dispatcher thread.

        Blocks while every dispatch slot is taken — the backpressure
        signal the micro-batcher relies on.  Queued batches leave the
        slots highest-priority-first.  The backend shards each batch
        across its execution units internally (contiguous runs of at
        least ``min_shard_size`` requests), so one dispatcher per
        execution unit keeps the units busy without double-sharding.

        After :meth:`close`, every future in ``batch`` is resolved with
        :class:`ServiceClosedError` and the same error is raised — the
        check and the enqueue are atomic, so a batch can never slip in
        behind the shutdown sentinels and hang its callers.
        """
        if not batch:
            return
        with self._lifecycle:
            if not self._closed:
                rank = -max(pending.priority for pending in batch)
                # Blocking put under the lock is safe: the dispatcher
                # threads never take the lock, so they keep draining the
                # queue until this put finds a free slot.
                self._queue.put((rank, next(self._sequence), batch))
                return
        error = ServiceClosedError("worker pool is closed")
        claimed = [
            pending for pending in batch if pending.future.set_running_or_notify_cancel()
        ]
        if claimed:
            self.metrics.record_failed(len(claimed))
        for pending in claimed:
            pending.future.set_exception(error)
        raise error

    def _run(self) -> None:
        while True:
            _, _, batch = self._queue.get()
            if batch is None:
                break
            self._process(batch)

    def _drop_expired(self, batch: List[PendingRequest]) -> List[PendingRequest]:
        """Resolve deadline-expired requests before they reach the backend.

        Here and below, metrics are recorded *before* the futures
        resolve, so a caller that has seen its outcome also sees it
        counted in ``/stats``.
        """
        now = time.monotonic()
        live: List[PendingRequest] = []
        expired: List[PendingRequest] = []
        for pending in batch:
            (expired if pending.expired(now) else live).append(pending)
        if expired:
            self.metrics.record_expired(len(expired))
        for pending in expired:
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(
                    DeadlineExceededError("request deadline expired before dispatch")
                )
        return live

    def _process(self, batch: List[PendingRequest]) -> None:
        # Claim each future before computing: a caller may have cancelled
        # a queued request, and resolving a cancelled future raises
        # InvalidStateError, which would kill the dispatcher thread.
        live: List[PendingRequest] = []
        cancelled = 0
        for pending in self._drop_expired(batch):
            if pending.future.set_running_or_notify_cancel():
                live.append(pending)
            else:
                cancelled += 1
        if cancelled:
            self.metrics.record_cancelled(cancelled)
        if not live:
            return
        # The fill histogram counts what actually reaches the engine —
        # the dispatched live size, not the collected size.
        self.metrics.record_batch(len(live))
        try:
            codes = np.stack([pending.codes for pending in live])
            if self.legacy_per_sample:
                with self._legacy_lock:
                    results = [self.amm.recognise(sample) for sample in codes]
            else:
                seeds = [pending.seed for pending in live]
                results = list(self.backend.recall_batch_seeded(codes, seeds))
        except Exception as error:  # resolve every caller, never swallow
            self.metrics.record_failed(len(live))
            for pending in live:
                pending.future.set_exception(error)
            return
        now = time.monotonic()
        self.metrics.record_completed(
            [now - pending.enqueued_at for pending in live],
            priorities=[pending.priority for pending in live],
            client_ids=[pending.client_id for pending in live],
        )
        for pending, result in zip(live, results):
            pending.future.set_result(result)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting work, finish queued batches and join the threads."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            # Sentinels sort after every queued batch, so pending work
            # drains before the dispatcher threads exit.
            self._queue.put((_SENTINEL_RANK, next(self._sequence), None))
        for thread in self._threads:
            thread.join()
        if self._owns_backend:
            self.backend.close()
