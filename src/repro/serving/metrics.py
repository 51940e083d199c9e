"""Observability for the recognition service.

:class:`ServiceMetrics` is the single thread-safe sink every serving
component reports into: the front end counts submissions, rejections,
quota denials and priority sheds, the micro-batcher records queue depth,
the worker pool records dispatched batch fill and completions with
per-segment latencies (every row of a segment counts as one completion
and one latency sample, so the counts stay per row).  ``snapshot()``
renders the whole state as a JSON-serialisable dictionary — the payload
of the HTTP ``GET /stats`` endpoint and of the load-test summaries.

Latencies are kept in bounded reservoirs (most recent
``max_latency_samples`` completions, one shared reservoir plus one per
priority level) so a long-running server's memory stays flat;
percentiles are nearest-rank over the reservoir.  Per-client counters
are capped at :data:`MAX_TRACKED_CLIENTS` distinct ids — beyond that,
new clients aggregate under ``"_overflow"`` so a client-id-spraying
caller cannot grow the table without bound.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, deque
from typing import Dict, List, Optional, Sequence

#: Distinct client ids tracked individually before aggregation.
MAX_TRACKED_CLIENTS = 256

#: Aggregation bucket for clients beyond :data:`MAX_TRACKED_CLIENTS`.
OVERFLOW_CLIENT = "_overflow"


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1]).

    Uses the canonical nearest-rank definition — the ``ceil(fraction * n)``-th
    order statistic — rather than ``int(round(...))``, whose banker's
    rounding (round-half-even) picked a different side of the median
    depending on whether the sample count was odd or even.  With this
    definition p50 of ``n`` samples is always the ``ceil(n / 2)``-th
    smallest, consistent across odd and even ``n``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/max of latency ``samples`` (seconds), in milliseconds.

    The one summary shape shared by the server-side ``/stats`` payload
    and the client-side load reports, so the two can never drift.
    """
    return {
        "p50_ms": percentile(samples, 0.50) * 1e3,
        "p90_ms": percentile(samples, 0.90) * 1e3,
        "p99_ms": percentile(samples, 0.99) * 1e3,
        "max_ms": (max(samples) if samples else 0.0) * 1e3,
    }


class _PriorityStats:
    """Per-priority counters and a bounded latency reservoir."""

    __slots__ = ("submitted", "completed", "latencies")

    def __init__(self, max_latency_samples: int) -> None:
        self.submitted = 0
        self.completed = 0
        self.latencies: deque = deque(maxlen=max_latency_samples)


class ServiceMetrics:
    """Thread-safe counters, gauges and histograms for one service instance.

    Parameters
    ----------
    max_latency_samples:
        Size of the latency reservoirs backing the percentile estimates.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(self, max_latency_samples: int = 4096, clock=time.monotonic) -> None:
        if max_latency_samples < 1:
            raise ValueError(
                f"max_latency_samples must be >= 1, got {max_latency_samples}"
            )
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self._max_latency_samples = max_latency_samples
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.quota_rejected = 0
        self.shed = 0
        self.expired = 0
        self.cancelled = 0
        self.batches = 0
        self._batch_fill: Counter = Counter()
        self._queue_depth = 0
        self._queue_depth_max = 0
        self._latencies: deque = deque(maxlen=max_latency_samples)
        self._by_priority: Dict[int, _PriorityStats] = {}
        self._by_client: Dict[str, Counter] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _priority_stats(self, priority: int) -> _PriorityStats:
        stats = self._by_priority.get(priority)
        if stats is None:
            stats = _PriorityStats(self._max_latency_samples)
            self._by_priority[priority] = stats
        return stats

    def _client_counter(self, client_id: str) -> Counter:
        counter = self._by_client.get(client_id)
        if counter is None:
            if len(self._by_client) >= MAX_TRACKED_CLIENTS:
                client_id = OVERFLOW_CLIENT
                counter = self._by_client.get(client_id)
                if counter is None:
                    counter = self._by_client[client_id] = Counter()
                return counter
            counter = self._by_client[client_id] = Counter()
        return counter

    def record_submitted(
        self,
        count: int = 1,
        priority: Optional[int] = None,
        client_id: Optional[str] = None,
    ) -> None:
        """Count requests accepted into the queue."""
        with self._lock:
            self.submitted += count
            if priority is not None:
                self._priority_stats(priority).submitted += count
            if client_id is not None:
                self._client_counter(client_id)["submitted"] += count

    def record_rejected(self, count: int = 1) -> None:
        """Count requests turned away by shared-queue backpressure."""
        with self._lock:
            self.rejected += count

    def record_quota_rejected(
        self, count: int = 1, client_id: Optional[str] = None
    ) -> None:
        """Count requests denied by a per-client quota (not backpressure)."""
        with self._lock:
            self.quota_rejected += count
            if client_id is not None:
                self._client_counter(client_id)["quota_rejected"] += count

    def record_shed(self, count: int = 1) -> None:
        """Count queued low-priority requests evicted for higher-priority ones."""
        with self._lock:
            self.shed += count

    def record_expired(self, count: int = 1) -> None:
        """Count requests dropped because their deadline passed in queue."""
        with self._lock:
            self.expired += count

    def record_cancelled(self, count: int = 1) -> None:
        """Count rows cancelled before dispatch (never solved)."""
        with self._lock:
            self.cancelled += count

    def record_queue_depth(self, depth: int) -> None:
        """Update the queue-depth gauge (and its high-water mark)."""
        with self._lock:
            self._queue_depth = depth
            self._queue_depth_max = max(self._queue_depth_max, depth)

    def record_batch(self, size: int) -> None:
        """Count one dispatched micro-batch of ``size`` *live* requests.

        Recorded at dispatch time by the worker pool, after expired and
        cancelled requests have been dropped, so the fill histogram
        reflects rows the engine actually solved — not what the batcher
        collected.
        """
        with self._lock:
            self.batches += 1
            self._batch_fill[size] += 1

    def record_completed(
        self,
        latencies: Sequence[float],
        priorities: Optional[Sequence[int]] = None,
        client_ids: Optional[Sequence[Optional[str]]] = None,
        counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Count resolved requests with their queue-to-response latencies (s).

        ``priorities`` / ``client_ids`` (parallel to ``latencies``, when
        given) segment the completion counters and latency reservoirs so
        ``/stats`` can show per-priority percentiles and per-client
        throughput.  ``counts`` (parallel too) is the number of rows each
        latency stands for — a segment of rows that resolved together;
        every row counts as completed and as one latency sample.
        """
        if counts is None:
            counts = [1] * len(latencies)
        with self._lock:
            for index, (latency, count) in enumerate(zip(latencies, counts)):
                samples = [latency] * count
                self.completed += count
                self._latencies.extend(samples)
                if priorities is not None:
                    stats = self._priority_stats(priorities[index])
                    stats.completed += count
                    stats.latencies.extend(samples)
                if client_ids is not None and client_ids[index] is not None:
                    self._client_counter(client_ids[index])["completed"] += count

    def record_failed(self, count: int = 1) -> None:
        """Count requests resolved with an error."""
        with self._lock:
            self.failed += count

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Current queue-depth gauge value."""
        with self._lock:
            return self._queue_depth

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99/max of the shared reservoir, in milliseconds."""
        with self._lock:
            samples: List[float] = list(self._latencies)
        summary = latency_summary(samples)
        summary["samples"] = len(samples)
        return summary

    def snapshot(self) -> Dict[str, object]:
        """The complete metric state as a JSON-serialisable dictionary."""
        with self._lock:
            uptime = max(self._clock() - self._started, 1e-9)
            fill = dict(sorted(self._batch_fill.items()))
            total_batched = sum(size * count for size, count in fill.items())
            priorities = {}
            for priority in sorted(self._by_priority):
                stats = self._by_priority[priority]
                summary = latency_summary(list(stats.latencies))
                summary["samples"] = len(stats.latencies)
                priorities[str(priority)] = {
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "latency": summary,
                }
            clients = {
                client_id: dict(counter)
                for client_id, counter in sorted(self._by_client.items())
            }
            state = {
                "uptime_seconds": uptime,
                "requests": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                    "quota_rejected": self.quota_rejected,
                    "shed": self.shed,
                    "expired": self.expired,
                    "cancelled": self.cancelled,
                    "in_queue": self._queue_depth,
                },
                "throughput": {
                    "completed_per_second": self.completed / uptime,
                },
                "queue_depth": {
                    "current": self._queue_depth,
                    "max": self._queue_depth_max,
                },
                "batches": {
                    "dispatched": self.batches,
                    "mean_fill": (total_batched / self.batches) if self.batches else 0.0,
                    "fill_histogram": {str(k): v for k, v in fill.items()},
                },
                "priorities": priorities,
                "clients": clients,
            }
        state["latency"] = self.latency_percentiles()
        return state
