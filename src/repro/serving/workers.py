"""Dispatch adapter between the micro-batcher and the execution backends.

PR 2's sharded thread pool lived here; the execution strategy has since
been extracted into :mod:`repro.backends` (serial / fleet, chosen by
name through the registry) so offline sweeps can use it too.
What remains is the *serving* half of the old pool, everything about
request lifecycle rather than execution.  Work is batch-granular from
end to end: the service queues one :class:`Submission` per submit call
(a block of rows that share a deadline, priority and client), the
micro-batcher cuts contiguous row ranges of submissions — *segments*,
``(submission, start, stop)`` — into micro-batches, and the pool
resolves **one outcome per segment**:

* a **bounded, priority-ordered dispatch queue**
  (``DISPATCH_SLOTS_PER_WORKER`` slots per execution unit): when every
  slot is busy the micro-batcher blocks on
  :meth:`~ShardedWorkerPool.dispatch`, the service queue fills, and the
  front end starts rejecting with a clean backpressure error.  Queued
  batches are consumed highest-priority-first (FIFO within a priority),
  so a high-priority batch overtakes low-priority batches that are still
  waiting for a dispatch slot;
* **dispatcher threads** (one per execution unit, so whole micro-batches
  pipeline while the backend shards each of them internally) that hand
  every segment its :class:`~repro.core.amm.BatchRecognitionResult`
  slice, record queue-to-response latencies per segment (with its row
  count) per priority and client, and map deadline-expired segments to
  :class:`~repro.serving.errors.DeadlineExceededError` *before* the
  batch reaches the backend;
* **error containment**: a failed batch resolves every segment with the
  error (retryable :class:`~repro.backends.base.WorkerCrashedError`
  included — no replica could complete the batch, which is safe to
  retry once one is back) and the dispatcher thread survives to serve
  the next batch.

Every settlement first *claims* the segment's rows
(:meth:`Submission.claim`), so a row is solved, failed or skipped as
cancelled exactly once, and a submission's quota slots are released
exactly once per row.  :class:`FutureSubmission` is the per-row-future
flavour behind ``RecognitionService.submit``/``submit_many``: it claims
through each row's future, so a cancelled row future is skipped while
its siblings are served.

Closing is race-free: :meth:`~ShardedWorkerPool.dispatch` and
:meth:`~ShardedWorkerPool.close` serialise on one lock, so a batch can
never slip into the queue between the closed check and the sentinel
drain — a dispatch that loses the race fails every segment in its batch
with :class:`~repro.serving.errors.ServiceClosedError` (and raises it)
instead of leaving callers waiting on outcomes nobody will deliver.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import queue
import threading
import time
from typing import Callable, Iterable, List, Optional, Tuple, Union

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

#: A deferred wakeup: run once the current burst of deliveries is over.
Wake = Callable[[], None]

#: ``deliver(start, stop, outcome)``: rows ``[start, stop)`` of a
#: submission resolved together with ``outcome`` — their
#: :class:`~repro.core.amm.BatchRecognitionResult` slice or the exception
#: that prevented them.  A sink that must wake another thread (the event
#: loop) returns a :data:`Wake` instead of waking per segment;
#: :func:`settle_all` runs each distinct wake once after the burst, so a
#: micro-batch that settles many segments costs one cross-thread wakeup.
Deliver = Callable[[int, int, object], Optional[Wake]]


class Submission:
    """One queued submission: a block of rows that share a deadline,
    priority and client, and resolve one outcome per segment.

    ``codes`` is the ``(rows, features)`` int64 block and ``seeds`` its
    int64 per-row seeds.  ``deliver`` is called on a worker thread once
    per settled segment (see :data:`Deliver`).  ``enqueued_at`` anchors
    the queue-to-response latency and the batching window; ``deadline``
    (monotonic seconds, or ``None``) is the instant after which no row
    may be dispatched.  ``priority`` (higher dispatches first) and
    ``client_id`` segment the metrics and drive admission control.
    """

    __slots__ = (
        "codes",
        "seeds",
        "deliver",
        "deadline",
        "priority",
        "client_id",
        "enqueued_at",
        "queued_from",
        "release",
        "cancelled",
        "_claimed",
        "_lock",
    )

    def __init__(
        self,
        codes: np.ndarray,
        seeds: np.ndarray,
        deliver: Optional[Deliver] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        client_id: Optional[str] = None,
    ) -> None:
        self.codes = codes
        self.seeds = seeds
        self.deliver = deliver
        self.deadline = deadline
        self.priority = priority
        self.client_id = client_id
        self.enqueued_at = time.monotonic()
        #: First row still waiting in the service queue (the batcher's
        #: cursor; rows before it were cut into batches or evicted).
        self.queued_from = 0
        #: Quota hook, called with a row count as rows give their
        #: in-flight slots back (see :meth:`hold_quota`).
        self.release: Optional[Callable[[int], None]] = None
        self.cancelled = False
        self._claimed = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.seeds)

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the submission's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def hold_quota(self, quotas, client_id: Optional[str]) -> None:
        """Hold one in-flight quota slot per row until the row settles
        (or is cancelled before it was claimed)."""
        self.release = functools.partial(quotas.release, client_id)

    def claim(self, start: int, stop: int) -> Optional[np.ndarray]:
        """Take rows ``[start, stop)`` for solving or failing.

        Returns ``None`` when every row is live, else a boolean mask of
        the live rows (all ``False`` once the submission is cancelled).
        Each row is claimed at most once.
        """
        with self._lock:
            if self.cancelled:
                return np.zeros(stop - start, dtype=bool)
            self._claimed += stop - start
        return None

    def cancel(self) -> int:
        """Abandon every row not yet claimed; returns how many.

        Those rows are never solved (the batcher and the dispatchers
        skip them and count them as cancelled) and give their quota
        slots back now.  Rows already claimed still settle, but nothing
        is delivered for rows that were abandoned.
        """
        with self._lock:
            if self.cancelled:
                return 0
            self.cancelled = True
            unclaimed = len(self) - self._claimed
        if unclaimed and self.release is not None:
            self.release(unclaimed)
        return unclaimed

    def settle(
        self,
        start: int,
        stop: int,
        outcome: object,
        live: Optional[np.ndarray] = None,
    ) -> Optional[Wake]:
        """Resolve the claimed live rows of ``[start, stop)`` with one outcome.

        ``outcome`` is the exception, or the batch-result slice covering
        the live rows in order.  Returns the ``deliver`` callback's
        deferred wake; settle through :func:`settle_all`, which runs it.
        """
        if self.release is not None:
            self.release(stop - start if live is None else int(np.count_nonzero(live)))
        if self.deliver is None:
            return None
        return self.deliver(start, stop, outcome)


class FutureSubmission(Submission):
    """A submission whose rows each resolve their own future.

    The per-row API of ``RecognitionService.submit`` / ``submit_many`` /
    ``recognise_many`` rides the same queue as every other submission;
    ``futures[i]`` resolves to row ``i``'s scalar
    :class:`~repro.core.amm.RecognitionResult` (or its error).  A
    cancelled row future is skipped at dispatch while its siblings are
    served.
    """

    __slots__ = ("futures",)

    def __init__(self, codes: np.ndarray, seeds: np.ndarray, **options) -> None:
        super().__init__(codes, seeds, **options)
        self.futures: List[concurrent.futures.Future] = [
            concurrent.futures.Future() for _ in range(len(seeds))
        ]

    def hold_quota(self, quotas, client_id: Optional[str]) -> None:
        # A row's slot comes back as its future resolves, cancellation
        # included (the future's done callbacks run on cancel()).
        for future in self.futures:
            future.add_done_callback(lambda _future: quotas.release(client_id, 1))

    def claim(self, start: int, stop: int) -> Optional[np.ndarray]:
        live = [future.set_running_or_notify_cancel() for future in self.futures[start:stop]]
        return None if all(live) else np.asarray(live)

    def cancel(self) -> int:
        return sum(future.cancel() for future in self.futures)

    def settle(
        self,
        start: int,
        stop: int,
        outcome: object,
        live: Optional[np.ndarray] = None,
    ) -> Optional[Wake]:
        futures = self.futures[start:stop]
        if live is not None:
            futures = [future for future, ok in zip(futures, live) if ok]
        if isinstance(outcome, BaseException):
            for future in futures:
                future.set_exception(outcome)
        else:
            for future, result in zip(futures, outcome):
                future.set_result(result)
        return None


#: Rows ``[start, stop)`` of one submission, as cut into a micro-batch.
Segment = Tuple[Submission, int, int]

#: A claimed segment: ``(submission, start, stop, live mask or None,
#: live row count)``.
_Claimed = Tuple[Submission, int, int, Optional[np.ndarray], int]


def claim_segments(segments: Iterable[Segment]) -> Tuple[List[_Claimed], int]:
    """Claim every segment's rows; returns the segments with live rows
    and the number of rows found cancelled."""
    claimed: List[_Claimed] = []
    cancelled = 0
    for submission, start, stop in segments:
        live = submission.claim(start, stop)
        count = stop - start if live is None else int(np.count_nonzero(live))
        cancelled += stop - start - count
        if count:
            claimed.append((submission, start, stop, live, count))
    return claimed, cancelled


def settle_all(
    settlements: Iterable[Tuple[Submission, int, int, object, Optional[np.ndarray]]],
) -> None:
    """Settle a burst of ``(submission, start, stop, outcome, live)``
    segments, then run each distinct deferred wake once."""
    wakes: List[Wake] = []
    for submission, start, stop, outcome, live in settlements:
        wake = submission.settle(start, stop, outcome, live)
        if wake is not None and wake not in wakes:
            wakes.append(wake)
    for wake in wakes:
        wake()


def fail_claimed(claimed: Iterable[_Claimed], error: BaseException) -> None:
    """Resolve claimed segments with ``error``."""
    settle_all(
        (submission, start, stop, error, live)
        for submission, start, stop, live, _count in claimed
    )


class ShardedWorkerPool:
    """Backend-agnostic micro-batch dispatcher with bounded work in flight.

    Parameters
    ----------
    amm:
        The served module; the backend builds its engine replicas from
        its network.  Must use deterministic neurons — the seeded recall
        path refuses stochastic DWN.
    workers:
        Execution units requested from the backend (worker agents;
        ``fleet`` spawns that many locally); the pool runs one
        dispatcher thread per unit the backend reports.
    metrics:
        Sink for completion counts and latencies.
    min_shard_size:
        Forwarded to the backend: a micro-batch is split across execution
        units only when the resulting shards would hold at least this
        many requests each.
    backend:
        A :mod:`repro.backends` registry name (``"serial"``,
        ``"fleet"``; ``None`` selects
        :data:`~repro.backends.registry.DEFAULT_BACKEND`) — the pool then
        owns and closes the created backend — or an already-prepared
        :class:`~repro.backends.base.RecallBackend` shared with other
        consumers (left open on :meth:`close`).
    backend_options:
        Extra keyword options forwarded to the backend factory when
        ``backend`` is a name (e.g. ``worker_addresses`` for the fleet
        backend); ignored for pre-built instances.
    clock:
        Monotonic time source for deadlines and latencies; must be the
        one the submissions' ``enqueued_at``/``deadline`` were taken on.
    """

    #: Dispatch slots per worker; bounds work-in-flight so a saturated
    #: pool exerts backpressure on the micro-batcher instead of buffering.
    DISPATCH_SLOTS_PER_WORKER = 2

    def __init__(
        self,
        amm: AssociativeMemoryModule,
        workers: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        min_shard_size: int = 16,
        backend: Union[str, RecallBackend, None] = None,
        backend_options: Optional[dict] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_integer("workers", workers, minimum=1)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        self.metrics = metrics or ServiceMetrics()
        self._clock = clock
        # Explicit backend_options win over the pool's defaults (a caller
        # tuning min_shard_size for a remote deployment should not
        # collide with the forwarded pool default).
        options = {"min_shard_size": min_shard_size}
        options.update(backend_options or {})
        self.backend, self._owns_backend = resolve_backend(
            backend, amm, workers=workers, **options
        )
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

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, batch: List[Segment]) -> None:
        """Hand one micro-batch of segments to a dispatcher thread.

        Blocks while every dispatch slot is taken — the backpressure
        signal the micro-batcher relies on.  Queued batches leave the
        slots highest-priority-first.  The backend shards each batch
        across its execution units internally (contiguous runs of at
        least ``min_shard_size`` rows), so one dispatcher per execution
        unit keeps the units busy without double-sharding.

        After :meth:`close`, every segment in ``batch`` is resolved with
        :class:`ServiceClosedError` and the same error is raised — the
        check and the enqueue are atomic, so a batch can never slip in
        behind the shutdown sentinels and leave its callers waiting.
        """
        if not batch:
            return
        with self._lifecycle:
            if not self._closed:
                rank = -max(submission.priority for submission, _, _ in batch)
                # Blocking put under the lock is safe: the dispatcher
                # threads never take the lock, so they keep draining the
                # queue until this put finds a free slot.
                self._queue.put((rank, next(self._sequence), batch))
                return
        error = ServiceClosedError("worker pool is closed")
        claimed, _cancelled = claim_segments(batch)
        if claimed:
            self.metrics.record_failed(sum(entry[4] for entry in claimed))
        fail_claimed(claimed, error)
        raise error

    def _run(self) -> None:
        while True:
            _, _, batch = self._queue.get()
            if batch is None:
                break
            self._process(batch)

    def _process(self, batch: List[Segment]) -> None:
        # Here and below, metrics are recorded *before* the outcomes are
        # delivered, so a caller that has seen its outcome also sees it
        # counted in ``/stats``.
        now = self._clock()
        current: List[Segment] = []
        expired: List[Segment] = []
        for segment in batch:
            (expired if segment[0].expired(now) else current).append(segment)
        if expired:
            # Deadline-expired rows are resolved before the batch reaches
            # the backend (counted as expired even if also cancelled).
            self.metrics.record_expired(sum(stop - start for _, start, stop in expired))
            doomed, _cancelled = claim_segments(expired)
            fail_claimed(
                doomed, DeadlineExceededError("request deadline expired before dispatch")
            )
        # Claim before computing: a caller may have cancelled queued rows.
        live, cancelled = claim_segments(current)
        if cancelled:
            self.metrics.record_cancelled(cancelled)
        if not live:
            return
        rows = sum(entry[4] for entry in live)
        # The fill histogram counts what actually reaches the engine —
        # the dispatched live size, not the collected size.
        self.metrics.record_batch(rows)
        try:
            codes = np.concatenate(
                [_live_rows(s.codes, start, stop, mask) for s, start, stop, mask, _ in live]
            )
            seeds = np.concatenate(
                [_live_rows(s.seeds, start, stop, mask) for s, start, stop, mask, _ in live]
            )
            results = self.backend.recall_batch_seeded(codes, seeds)
        except Exception as error:  # resolve every caller, never swallow
            self.metrics.record_failed(rows)
            fail_claimed(live, error)
            return
        now = self._clock()
        self.metrics.record_completed(
            [now - entry[0].enqueued_at for entry in live],
            priorities=[entry[0].priority for entry in live],
            client_ids=[entry[0].client_id for entry in live],
            counts=[entry[4] for entry in live],
        )
        offsets = np.cumsum([0] + [entry[4] for entry in live]).tolist()
        settle_all(
            (submission, start, stop, results[offsets[index] : offsets[index + 1]], mask)
            for index, (submission, start, stop, mask, _count) in enumerate(live)
        )

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


def _live_rows(
    values: np.ndarray, start: int, stop: int, mask: Optional[np.ndarray]
) -> np.ndarray:
    rows = values[start:stop]
    return rows if mask is None else rows[mask]
