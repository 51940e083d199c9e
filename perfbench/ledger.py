"""Pure helpers of the benchmark: percentiles, metric names, spans, ledgers.

Nothing here imports the program under test, so the arithmetic the
benchmark reports can be tested on synthetic data.
"""

from __future__ import annotations

import math
import re
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``.

    Names are made of letters, digits, ``_``, ``.`` and ``-``, start with a
    letter or digit and are at most 64 characters long.
    """
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample count behind it."""

    q: float
    value: float
    samples: int
    beyond: int

    @property
    def supported(self) -> bool:
        """Whether at least :data:`MIN_BEYOND` samples lie beyond the value."""
        return self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        note = "" if self.supported else f", unsupported: fewer than {MIN_BEYOND} beyond"
        return f"{self.value:.4f} {unit} (p{self.q:g}, n={self.samples}, {self.beyond} beyond{note})"


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q=q, value=ordered[rank - 1], samples=len(ordered), beyond=len(ordered) - rank)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Span:
    """One timed call: ``[start_ns, end_ns)`` on the ``perf_counter_ns`` clock."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; parents follow the nesting on each thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, op))


class NullTracer:
    """The tracing-off stand-in: spans cost one ``nullcontext``."""

    def span(self, name: str, op: Optional[int] = None):
        return nullcontext()


# ---------------------------------------------------------------------- #
# Ledger arithmetic
# ---------------------------------------------------------------------- #
def _covered_ns(start: int, end: int, intervals: List[tuple]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time of each span: its duration minus what its children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - _covered_ns(span.start_ns, span.end_ns, children.get(span.span_id, []))
        for span in spans
    }


def totals_by_name(spans: Sequence[Span], self_time: bool = True) -> Dict[str, int]:
    """Total (self, by default) nanoseconds per span name."""
    own = self_times(spans) if self_time else {s.span_id: s.duration_ns for s in spans}
    totals: Dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0) + own[span.span_id]
    return totals


def durations_by_name(spans: Sequence[Span], name: str) -> List[int]:
    """Durations (ns) of every span called ``name``, in recording order."""
    return [span.duration_ns for span in spans if span.name == name]


def coverage(stage_seconds: Sequence[float], untraced_seconds: float) -> float:
    """Sum of the traced stages as a share of the untraced time they explain."""
    if untraced_seconds <= 0:
        raise ValueError("untraced time must be positive")
    return sum(stage_seconds) / untraced_seconds


def overhead_share(traced_seconds: float, untraced_seconds: float) -> float:
    """How much slower the traced replay ran: traced / untraced - 1."""
    if untraced_seconds <= 0:
        raise ValueError("untraced time must be positive")
    return traced_seconds / untraced_seconds - 1.0
