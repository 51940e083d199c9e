"""Micro-batching front end of the recognition service.

:class:`RecognitionService` accepts recall requests of one or many rows
from many concurrent callers and turns them into efficient work for the
batched recall engine.  It is batch-granular throughout: one submit call
is one queue entry, and its rows resolve in segments, not one by one.

1. ``submit_batch()`` validates the rows in the caller's thread, checks
   the caller's per-client quota (when configured) and places them on a
   bounded, priority-ordered queue as one
   :class:`~repro.serving.workers.Submission` (codes block, seeds array,
   deadline, priority, client id), sized in rows — when the queue is
   full the caller gets an immediate :class:`BackpressureError` instead
   of unbounded buffering, unless enough *lower*-priority rows are
   queued, in which case whole lower-priority submissions are shed
   (their rows fail with :class:`BackpressureError`) to admit the
   higher-priority arrival;
2. a micro-batcher thread cuts contiguous row ranges of the queued
   submissions (segments) into batches of up to ``max_batch_size`` rows,
   draining strictly highest-priority-first (FIFO within a priority)
   and waiting at most ``max_wait`` seconds after the oldest queued
   submission arrived (the classic latency/throughput window knob);
3. the batch goes to the :class:`~repro.serving.workers.ShardedWorkerPool`,
   whose workers solve it through their pre-factorised crossbar engines
   and resolve each segment with one outcome: its
   :class:`~repro.core.amm.BatchRecognitionResult` slice, or the error
   that failed it.

``submit`` / ``submit_many`` / ``recognise_many`` are the per-row-future
API on the same queue (a :class:`~repro.serving.workers.FutureSubmission`
resolves each row's future from its segment's outcome) for in-process
callers that want one future per row.

Very large multi-image requests stream: the asyncio front end
(:mod:`repro.serving.aio`) submits their rows in bounded windows of
:meth:`RecognitionService.stream_window` rows and writes each segment's
rows as its outcome arrives, so a 1000-image request is served
incrementally with flat server-side memory.

Every request carries a seed for its private random substream (see
:meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`),
so a request's result is identical no matter when it arrives, what its
priority is, how the micro-batcher groups it, or how many workers the
pool runs — priorities and quotas reorder and shed *work*, never change
*answers*.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import RecallBackend
from repro.core.amm import AssociativeMemoryModule, RecognitionResult
from repro.core.inputs import check_batch
from repro.serving.errors import (
    BackpressureError,
    # Explicit re-export: callers historically import the deadline error
    # from the service module (see tests/serving/test_workers.py).
    DeadlineExceededError as DeadlineExceededError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.serving.metrics import ServiceMetrics
from repro.serving.quotas import (
    ANONYMOUS_CLIENT,
    ClientQuotas,
    QuotaConfig,
    validate_client_id,
)
from repro.serving.workers import (
    Deliver,
    FutureSubmission,
    Segment,
    ShardedWorkerPool,
    Submission,
    claim_segments,
    fail_claimed,
)
from repro.utils.validation import check_integer

#: Admission-priority range: higher dispatches (and survives shedding)
#: first.  The default priority is the floor, so plain traffic is the
#: first to be shed under pressure.
MIN_PRIORITY = 0
MAX_PRIORITY = 9
DEFAULT_PRIORITY = MIN_PRIORITY

def _consume_outcome(future: concurrent.futures.Future) -> None:
    """Done-callback that retrieves (and discards) a future's outcome."""
    if not future.cancelled():
        future.exception()


class _PriorityPending:
    """The service's pending queue: one entry per submission, FIFO per
    priority, drained high-first, sized in rows.

    A micro-batch is cut as contiguous row ranges (segments) of the
    entries at the head of the highest levels; an entry leaves the queue
    once its last row is cut.  Also supports shedding — evicting queued
    low-priority submissions whole (newest first, lowest priority first)
    to admit a higher-priority arrival when the queue is full.
    """

    def __init__(self) -> None:
        self._levels: Dict[int, Deque[Submission]] = {}
        self._rows: Dict[int, int] = {}  # queued rows per level
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, submission: Submission) -> None:
        if not len(submission):
            return  # nothing to cut; an empty entry would never leave
        priority = submission.priority
        level = self._levels.get(priority)
        if level is None:
            level = self._levels[priority] = deque()
            self._rows[priority] = 0
        level.append(submission)
        self._rows[priority] += len(submission)
        self._count += len(submission)

    def _take(self, priority: int, rows: int) -> None:
        self._rows[priority] -= rows
        self._count -= rows
        if not self._levels[priority]:
            del self._levels[priority]
            del self._rows[priority]

    def oldest_enqueued_at(self) -> float:
        """Arrival time of the longest-waiting queued submission."""
        return min(level[0].enqueued_at for level in self._levels.values())

    def pop_batch(self, limit: int) -> Tuple[List[Segment], int]:
        """Cut up to ``limit`` rows, highest priority first.

        Returns the segments and the number of queued rows dropped
        because their submission was cancelled (never dispatched).
        """
        batch: List[Segment] = []
        taken = dropped = 0
        for priority in sorted(self._levels, reverse=True):
            level = self._levels[priority]
            cut = 0
            while level and taken < limit:
                submission = level[0]
                start = submission.queued_from
                if submission.cancelled:
                    stop = len(submission)
                    dropped += stop - start
                else:
                    stop = min(len(submission), start + limit - taken)
                    batch.append((submission, start, stop))
                    taken += stop - start
                cut += stop - start
                submission.queued_from = stop
                if stop == len(submission):
                    level.popleft()
            self._take(priority, cut)
            if taken >= limit:
                break
        return batch, dropped

    def count_below(self, priority: int) -> int:
        """Queued rows strictly below ``priority`` (shed candidates)."""
        return sum(
            rows for level_priority, rows in self._rows.items() if level_priority < priority
        )

    def evict_below(self, priority: int, count: int) -> List[Segment]:
        """Remove whole submissions below ``priority`` until at least
        ``count`` rows are freed: lowest priority first, newest first
        within a priority (they have waited least).  A submission is
        never split by shedding — the caller's gather fails on the first
        shed row anyway, so leaving part of it queued would only spend
        engine time on results a retrying caller discards."""
        evicted: List[Segment] = []
        freed = 0
        for level_priority in sorted(self._levels):
            if level_priority >= priority or freed >= count:
                break
            level = self._levels[level_priority]
            rows = 0
            while level and freed + rows < count:
                submission = level.pop()
                start, stop = submission.queued_from, len(submission)
                submission.queued_from = stop
                evicted.append((submission, start, stop))
                rows += stop - start
            freed += rows
            self._take(level_priority, rows)
        return evicted

    def drain(self) -> List[Segment]:
        """Remove and return everything (highest priority first)."""
        segments: List[Segment] = []
        for priority in sorted(self._levels, reverse=True):
            for submission in self._levels[priority]:
                segments.append((submission, submission.queued_from, len(submission)))
                submission.queued_from = len(submission)
        self._levels.clear()
        self._rows.clear()
        self._count = 0
        return segments


class RecognitionService:
    """Coalesces concurrent single recalls into batched engine dispatches.

    Parameters
    ----------
    amm:
        The programmed module to serve.  Must use deterministic neurons
        (``stochastic_dwn`` off): the per-request substreams that make
        results arrival-order invariant are undefined for stochastic
        switching, so construction fails fast.
    max_batch_size:
        Largest micro-batch handed to a worker.
    max_wait:
        Seconds the batcher waits after a batch's first request for more
        arrivals before dispatching a partial batch.
    max_queue_depth:
        Bound on requests waiting for dispatch; beyond it ``submit``
        raises :class:`BackpressureError` — unless the arrival outranks
        enough queued requests, which are then shed to make room.
    workers:
        Execution units requested from the backend (worker agents;
        ``fleet`` spawns that many locally); the single-engine
        ``serial`` backend has one.
    metrics:
        Metric sink; a fresh :class:`ServiceMetrics` when omitted.
    backend:
        Execution backend for the recalls — a :mod:`repro.backends`
        registry name (``"serial"``, ``"fleet"``; ``None`` selects
        ``"serial"``) or a prepared
        :class:`~repro.backends.base.RecallBackend` instance.  Because
        every request carries its own seed, the served results are
        identical for every backend choice.
    backend_options:
        Extra keyword options for the named backend's factory (e.g.
        ``{"worker_addresses": "host:7070,host:7071"}`` for ``fleet``).
    quota:
        Per-client admission budget — a
        :class:`~repro.serving.quotas.QuotaConfig` (the service builds
        the bucket table) or a prepared
        :class:`~repro.serving.quotas.ClientQuotas` (shared / test
        clock).  ``None`` (default) disables quotas; requests without a
        ``client_id`` then share no budget at all, and with quotas they
        share the anonymous bucket.
    clock:
        Monotonic time source of arrival stamps, deadlines and the
        batching window (shared with the worker pool); injectable for
        tests.
    """

    def __init__(
        self,
        amm: AssociativeMemoryModule,
        max_batch_size: int = 64,
        max_wait: float = 2e-3,
        max_queue_depth: int = 1024,
        workers: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        backend: Union[str, RecallBackend, None] = None,
        backend_options: Optional[dict] = None,
        quota: Union[QuotaConfig, ClientQuotas, None] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_integer("max_batch_size", max_batch_size, minimum=1)
        check_integer("max_queue_depth", max_queue_depth, minimum=1)
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if not amm.wta.deterministic:
            raise ValueError(
                "RecognitionService requires deterministic neurons "
                "(stochastic switching off, per-cycle preset on); their "
                "conversions cannot be made arrival-order invariant"
            )
        self.amm = amm
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_queue_depth = max_queue_depth
        self.metrics = metrics or ServiceMetrics()
        if isinstance(quota, QuotaConfig):
            quota = ClientQuotas(quota)
        self.quotas: Optional[ClientQuotas] = quota
        self.pool = ShardedWorkerPool(
            amm,
            workers=workers,
            metrics=self.metrics,
            backend=backend,
            backend_options=backend_options,
            clock=clock,
        )
        self._clock = clock
        self._pending = _PriorityPending()
        self._state_lock = threading.Lock()
        self._arrived = threading.Condition(self._state_lock)
        self._closed = False
        self._batcher = threading.Thread(
            target=self._batch_loop, name="micro-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------ #
    # Request interface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        codes: np.ndarray,
        seed: int = 0,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> concurrent.futures.Future:
        """Queue one recall request; returns a future of its result.

        ``codes`` is a single ``(features,)`` integer vector; ``seed``
        names the request's private random substream (requests with equal
        codes and seed always produce equal results).  ``timeout_ms``
        optionally bounds the request's queue time: a request still
        undispatched when the budget expires is dropped and fails with
        :class:`DeadlineExceededError`.  ``priority`` (``MIN_PRIORITY`` …
        ``MAX_PRIORITY``, higher first) orders dispatch and shedding;
        ``client_id`` names the caller for quota admission and per-client
        metrics.  Raises :class:`BackpressureError` when the queue is
        full, :class:`QuotaExceededError` when the caller's budget is
        spent, and :class:`ServiceClosedError` after :meth:`close`.
        """
        return self.submit_many(
            np.asarray(codes)[None, :],
            seeds=[seed],
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        )[0]

    def submit_many(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> List[concurrent.futures.Future]:
        """Queue several requests atomically; returns one future per row.

        All-or-nothing: either every row fits in the queue (shedding
        queued lower-priority requests when necessary) or none is
        accepted and :class:`BackpressureError` is raised — a partially
        admitted multi-image request would occupy queue capacity for
        results its (retrying) caller will discard.  ``timeout_ms``
        applies the same dispatch deadline, and ``priority`` /
        ``client_id`` the same ordering and quota accounting, to every
        row.  The rows are queued as one :class:`FutureSubmission`, the
        per-row-future flavour of :meth:`submit_batch`.
        """
        submission = self._admit(
            FutureSubmission, codes_batch, seeds, None, timeout_ms, priority, client_id
        )
        return submission.futures

    def submit_batch(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]],
        deliver: Deliver,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> Submission:
        """Queue several rows atomically as one batch-granular submission.

        Admission, validation and semantics are those of
        :meth:`submit_many`, but no per-row future exists: the rows are
        resolved in segments (contiguous row ranges that rode the same
        micro-batch), each with one ``deliver(start, stop, outcome)``
        call on a worker thread — ``outcome`` is the segment's
        :class:`~repro.core.amm.BatchRecognitionResult` slice or the
        exception that failed all of its rows (expired deadline, shed,
        crashed worker, closed service).  Every row is delivered exactly
        once unless the returned submission is cancelled first
        (:meth:`Submission.cancel`), which abandons the rows not yet
        dispatched and releases their quota slots at once.
        """
        return self._admit(
            Submission, codes_batch, seeds, deliver, timeout_ms, priority, client_id
        )

    def check_request(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]],
        timeout_ms: Optional[float],
        priority: int,
        client_id: Optional[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The request checks of :meth:`submit_batch`, queueing nothing.

        Returns the int64 ``(B, features)`` codes and ``(B,)`` seeds
        (zeros when ``seeds`` is ``None``); raises ``ValueError`` for
        non-integral or out-of-range codes, bad seeds, an out-of-range
        priority, a malformed client id or a non-positive ``timeout_ms``.
        A front end that submits a request in windows runs it once over
        the whole request, so a bad row anywhere is refused before its
        first window is queued.
        """
        codes_batch, seeds = check_batch(
            "codes_batch",
            codes_batch,
            self.amm.crossbar.rows,
            seeds,
            allow_empty=True,
        )
        if seeds is None:
            seeds = np.zeros(codes_batch.shape[0], dtype=np.int64)
        max_code = self.amm.input_dacs.max_code
        # Every code lies in [0, max_code] exactly when their bitwise OR does.
        if not 0 <= np.bitwise_or.reduce(codes_batch, axis=None) <= max_code:
            raise ValueError(f"codes must be in [0, {max_code}]")
        check_integer("priority", priority, minimum=MIN_PRIORITY)
        if priority > MAX_PRIORITY:
            raise ValueError(
                f"priority must be <= {MAX_PRIORITY}, got {priority}"
            )
        validate_client_id(client_id)
        if timeout_ms is not None and not timeout_ms > 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        return codes_batch, seeds

    def _admit(
        self,
        kind: type,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]],
        deliver: Optional[Deliver],
        timeout_ms: Optional[float],
        priority: int,
        client_id: Optional[str],
    ):
        """Validate, then queue one submission of ``kind`` (or raise)."""
        codes_batch, seeds = self.check_request(
            codes_batch, seeds, timeout_ms, priority, client_id
        )
        rows = codes_batch.shape[0]
        if rows > self.max_queue_depth:
            # Never admittable, even on an idle service: a permanent-error
            # ValueError (HTTP 400), not a retry-later BackpressureError.
            raise ValueError(
                f"request holds {rows} rows but the queue admits "
                f"at most {self.max_queue_depth}; split (or stream) the request"
            )
        metric_client = client_id if client_id is not None else ANONYMOUS_CLIENT
        submission = kind(
            codes_batch,
            seeds,
            deliver=deliver,
            priority=priority,
            client_id=metric_client,
        )
        shed: List[Segment] = []
        with self._arrived:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self.quotas is not None:
                try:
                    self.quotas.admit(client_id, rows)
                except QuotaExceededError:
                    self.metrics.record_quota_rejected(rows, metric_client)
                    raise
            overflow = len(self._pending) + rows - self.max_queue_depth
            if overflow > 0:
                if self._pending.count_below(priority) >= overflow:
                    shed = self._pending.evict_below(priority, overflow)
                else:
                    if self.quotas is not None:
                        # The rows never entered the queue: return the
                        # tokens and the in-flight slots in one step.
                        self.quotas.cancel_admission(client_id, rows)
                    self.metrics.record_rejected(rows)
                    raise BackpressureError(
                        f"request queue cannot admit {rows} more requests "
                        f"({len(self._pending)}/{self.max_queue_depth} pending); "
                        "retry later"
                    )
            if self.quotas is not None:
                # From here on the rows own their in-flight slots; each
                # row releases its slot as it settles.
                submission.hold_quota(self.quotas, client_id)
            submission.enqueued_at = self._clock()
            if timeout_ms is not None:
                submission.deadline = submission.enqueued_at + timeout_ms * 1e-3
            was_empty = not self._pending
            self._pending.append(submission)
            self.metrics.record_submitted(
                rows, priority=priority, client_id=metric_client
            )
            self.metrics.record_queue_depth(len(self._pending))
            # Wake the batcher only when it can act on the wakeup: the
            # queue just became non-empty (it is parked in the idle
            # wait), or a full micro-batch is now ready (it can cut its
            # ``max_wait`` window short).  Arrivals inside a partial
            # window need no wakeup — the batcher drains whatever is
            # queued when the window expires — so a burst of N submits
            # costs O(1) batcher wakeups instead of N.
            if was_empty or len(self._pending) >= self.max_batch_size:
                self._arrived.notify()
        if shed:
            # Outside the lock: settling runs caller callbacks.
            self.metrics.record_shed(sum(stop - start for _, start, stop in shed))
            if self.quotas is not None:
                # Shed rows did no work: give their tokens back (the
                # in-flight slots come back as the rows settle).
                for victim, start, stop in shed:
                    self.quotas.refund_tokens(victim.client_id, stop - start)
            claimed, _cancelled = claim_segments(shed)
            fail_claimed(
                claimed,
                BackpressureError(
                    "request shed from the queue to admit higher-priority "
                    "traffic; retry later"
                ),
            )
        return submission

    def recognise(
        self,
        codes: np.ndarray,
        seed: int = 0,
        timeout: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> RecognitionResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            codes,
            seed=seed,
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        ).result(timeout)

    def recognise_many(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> List[RecognitionResult]:
        """Submit each row as its own request and gather the results.

        The rows enter the shared micro-batching queue individually
        (atomically, via :meth:`submit_many`), so they coalesce with
        whatever other traffic is in flight — the in-process twin of a
        multi-image HTTP request, not a private batch.  ``timeout``
        bounds the *whole* gather (client-side wait); ``timeout_ms`` is
        the server-side dispatch deadline applied to every row.

        When the gather fails part-way (a row error, or the ``timeout``
        budget running out), the remaining rows are abandoned: still-
        queued rows are cancelled so the engine never solves them, and
        already-dispatched rows have their outcomes consumed on
        resolution — no in-flight work keeps running for a caller that
        already got its error.
        """
        futures = self.submit_many(
            codes_batch,
            seeds=seeds,
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        try:
            for future in futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                results.append(future.result(remaining))
        except BaseException:
            # On a gather timeout the current future is still pending; on
            # a row error its outcome is already consumed (abandoning a
            # resolved future is a no-op) — either way, everything from
            # the current row on is cancelled or drained.
            self._abandon(futures[len(results):])
            raise
        return results

    @staticmethod
    def _abandon(futures: Iterable[concurrent.futures.Future]) -> None:
        """Cancel still-queued futures; drain the rest as they resolve.

        Cancelled rows are skipped by the dispatcher (no engine time);
        rows already dispatched cannot be stopped, so their outcome is
        consumed by a done-callback instead — nothing blocks, and no
        future is left unresolved or unretrieved.
        """
        for future in futures:
            if not future.cancel():
                future.add_done_callback(_consume_outcome)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def stream_window(self) -> int:
        """The bounded submission-window size of one streamed request.

        Twice ``max_batch_size`` (so the batcher always has a full batch
        ready while the previous one is in flight), at least 32, clamped
        to the queue depth and — when quotas are configured — the quota
        burst and per-client in-flight cap, or the all-or-nothing window
        submission could never be admitted even on an idle service.
        Shared by the asyncio front end's NDJSON stream writer and its
        binary endpoint, so both transports window identically.
        """
        window = min(max(2 * self.max_batch_size, 32), self.max_queue_depth)
        if self.quotas is not None:
            window = min(window, self.quotas.burst)
            if self.quotas.config.max_inflight is not None:
                window = min(window, self.quotas.config.max_inflight)
        return window

    # ------------------------------------------------------------------ #
    # Micro-batcher
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            try:
                # Blocks when every dispatch slot is busy: that is the
                # backpressure path that lets the bounded queue fill up.
                self.pool.dispatch(batch)
            except ServiceClosedError:
                # The pool was closed underneath us (direct pool.close());
                # dispatch() already failed the batch's segments.
                continue

    def _collect_batch(self) -> Optional[List[Segment]]:
        """Wait for traffic, then cut one micro-batch from the queue.

        Returns ``None`` when the service is closed and the queue is
        drained (the batcher's exit signal).  Keeps collecting until the
        batch is full or ``max_wait`` has elapsed since the oldest queued
        submission arrived — rows left over from a cut batch, or queued
        while the batcher was blocked on a full pool, have already
        waited, so they do not wait a fresh window.  The cut is
        highest-priority-first, so a high-priority arrival inside the
        window jumps ahead of every queued lower-priority request.
        """
        with self._arrived:
            while not self._pending:
                if self._closed:
                    return None
                self._arrived.wait()
            deadline = self._pending.oldest_enqueued_at() + self.max_wait
            while (
                len(self._pending) < self.max_batch_size
                and not self._closed
            ):
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._arrived.wait(remaining)
            batch, dropped = self._pending.pop_batch(self.max_batch_size)
            self.metrics.record_queue_depth(len(self._pending))
        if dropped:
            self.metrics.record_cancelled(dropped)
        return batch

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Rows currently waiting for dispatch."""
        with self._state_lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def health(self) -> dict:
        """Liveness summary consumed by the HTTP ``/healthz`` endpoint."""
        capabilities = self.pool.backend.capabilities()
        return {
            "status": "closed" if self._closed else "ok",
            "workers": len(self.pool),
            "backend": capabilities.name,
            "backend_escapes_gil": capabilities.escapes_gil,
            "queue_depth": self.queue_depth,
            "max_batch_size": self.max_batch_size,
            "max_wait_seconds": self.max_wait,
            "quotas_enabled": self.quotas is not None,
            "array": {
                "rows": self.amm.crossbar.rows,
                "columns": self.amm.crossbar.columns,
            },
        }

    def stats(self) -> dict:
        """Metrics snapshot consumed by the HTTP ``/stats`` endpoint.

        When the pool's backend is fleet-supervised (exposes
        ``fleet_stats``), its replica/health/control snapshot rides along
        as a ``fleet`` section — the front end serves it for free since
        it delegates here (schema in ``src/repro/serving/README.md``).
        """
        stats = self.metrics.snapshot()
        fleet_stats = getattr(self.pool.backend, "fleet_stats", None)
        if callable(fleet_stats):
            stats["fleet"] = fleet_stats()
        return stats

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued requests, stop the batcher and join the workers.

        Queued requests are still served; new submissions fail with
        :class:`ServiceClosedError`.  When the graceful drain exceeds
        ``timeout``, the rows still waiting in the queue are failed
        with :class:`ServiceClosedError` (so no caller waits on an
        outcome nobody will deliver) and only in-flight batches finish.
        Idempotent.
        """
        with self._arrived:
            if self._closed:
                return
            self._closed = True
            self._arrived.notify_all()
        self._batcher.join(timeout)
        if self._batcher.is_alive():
            with self._arrived:
                abandoned = self._pending.drain()
                self.metrics.record_queue_depth(0)
                self._arrived.notify_all()
            # Cancelled rows must not be resolved again.
            claimed, _cancelled = claim_segments(abandoned)
            self.metrics.record_failed(sum(entry[4] for entry in claimed))
            fail_claimed(
                claimed,
                ServiceClosedError("service closed before the request was dispatched"),
            )
            # With the queue empty the batcher exits after at most one
            # dispatch cycle; the pool is still consuming, so this join
            # is bounded by the in-flight work.
            self._batcher.join()
        self.pool.close()

    def __enter__(self) -> "RecognitionService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
