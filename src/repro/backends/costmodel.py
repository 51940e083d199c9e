"""Measured dispatch cost model behind the ``auto`` backend.

Parallel backends only pay when a batch is large enough for the per-shard
dispatch overhead (staging buffers, a pipe/socket round trip, a worker
wakeup) to amortise — on small batches serial wins, and ``BENCH_backends``
showed it winning every contest on a small host.  Instead of hard-coding
a crossover, the ``auto`` backend *measures* one at :meth:`prepare` time:

1. for each candidate backend, time two single-shard dispatches at a
   small and a large batch size (minimum over a few repeats — scheduler
   noise is strictly additive) and fit the affine model
   ``t(batch) = fixed + marginal * images``;
2. for backends that shard, time one full fan-out dispatch and derive an
   *effective parallel speedup* — the ratio of the model's serialised
   prediction to the measured wall time, clamped to ``[1, workers]`` (a
   GIL-bound thread pool on one core measures ~1, real processes on real
   cores measure ~workers);
3. at dispatch time, predict every candidate's wall time for the batch at
   hand with :meth:`CostModel.predict` and run the cheapest plan.

Calibration points are minutes-of-noise measurements of millisecond
dispatches, so two guards keep noise from routing into a losing plan:
callers can cap the fitted speedup at a physical ceiling
(``max_speedup`` — the ``auto`` backend passes the host core count for
local candidates; a 1.1x "speedup" measured on one core is noise by
construction), and the :class:`DispatchPlanner` can require a routing
*margin* — a challenger must beat the incumbent's prediction by a clear
fraction before a batch leaves the first-registered (serial) candidate.

All timing happens on real recalls through the backend's public entry
point, so whatever fixed costs a transport actually has (shared-memory
staging, wire framing, futures machinery) are in the measurement by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.backends.base import RecallBackend, contiguous_shards

#: Single-shard batch sizes timed to separate the per-dispatch fixed cost
#: from the per-image marginal cost.
CALIBRATION_SIZES = (4, 64)

#: Timed repetitions per calibration point; the minimum is kept.
CALIBRATION_REPEATS = 3

#: Floor on the fitted marginal cost (seconds/image) so a noisy
#: measurement can never produce a zero or negative slope.
_MIN_MARGINAL = 1e-9


@dataclass(frozen=True)
class CostModel:
    """``t(batch) = fixed + marginal * images`` for one backend, measured.

    Attributes
    ----------
    backend:
        Registry name of the backend the model describes.
    fixed:
        Seconds of per-shard dispatch overhead (intercept of the fit).
    marginal:
        Seconds per image (slope of the fit).
    workers:
        Execution units the backend was calibrated with.
    parallel_speedup:
        Effective concurrency measured on a full fan-out dispatch,
        in ``[1, workers]`` — 1 for serial and for backends whose
        parallelism does not pay on this host (e.g. a GIL-bound thread
        pool on one core).
    samples:
        The raw timing points behind the fit, for diagnostics and the
        benchmark record.
    """

    backend: str
    fixed: float
    marginal: float
    workers: int
    parallel_speedup: float
    samples: Dict[str, float] = field(default_factory=dict)

    def predict(self, count: int, shards: int) -> float:
        """Predicted wall seconds for ``count`` images in ``shards`` shards.

        The total work is ``shards * fixed + marginal * count``; it
        overlaps across at most ``min(shards, parallel_speedup)``
        effective execution units.
        """
        if count <= 0:
            return 0.0
        shards = max(1, min(shards, count))
        concurrency = max(1.0, min(float(shards), self.parallel_speedup))
        return (shards * self.fixed + self.marginal * count) / concurrency

    def to_dict(self) -> dict:
        """JSON-ready form recorded into ``BENCH_backends.json``."""
        return {
            "backend": self.backend,
            "fixed_seconds": self.fixed,
            "marginal_seconds_per_image": self.marginal,
            "workers": self.workers,
            "parallel_speedup": self.parallel_speedup,
            "samples": dict(self.samples),
        }


@dataclass(frozen=True)
class ShardRule:
    """The sharding parameters one candidate backend would dispatch with."""

    workers: int
    min_shard_size: int
    max_shard_size: Optional[int] = None

    def admits(self, count: int) -> bool:
        """Whether a ``count``-image batch is big enough for this
        candidate at all.

        A batch below ``min_shard_size`` is below the candidate's
        (calibrated) break-even size even as a single shard — for such
        batches the fitted models differ only in their ``fixed``
        intercepts, which is exactly where calibration noise lives, so
        the planner refuses to route on it and the incumbent keeps the
        batch.
        """
        return count >= self.min_shard_size

    def shards_for(self, count: int) -> int:
        """How many shards :func:`contiguous_shards` yields for ``count``."""
        if count <= 0:
            return 1
        return max(
            1,
            len(
                contiguous_shards(
                    count,
                    self.workers,
                    self.min_shard_size,
                    max_shard_size=self.max_shard_size,
                )
            ),
        )


@dataclass(frozen=True)
class DispatchPlan:
    """The chosen execution plan for one batch."""

    backend: str
    shards: int
    shard_size: int
    predicted_seconds: float
    count: int

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "shards": self.shards,
            "shard_size": self.shard_size,
            "predicted_seconds": self.predicted_seconds,
            "count": self.count,
        }


class DispatchPlanner:
    """Pick the cheapest candidate plan for each batch size.

    Candidates are evaluated in insertion order with a strict ``<``
    comparison, so the first-registered backend (serial, in the ``auto``
    backend) wins ties — small batches never leave the caller's core on
    a prediction that parallelism would merely break even.

    ``margin`` widens that tie region: a challenger only takes over when
    its prediction beats the incumbent's by more than the given fraction
    (``0.15`` means "at least 15% faster").  Fitted models carry
    measurement noise of roughly that order, so without a margin the
    planner would happily route into a plan whose predicted win is
    smaller than its own error bars.
    """

    def __init__(
        self,
        entries: Dict[str, Tuple[CostModel, ShardRule]],
        margin: float = 0.0,
    ) -> None:
        if not entries:
            raise ValueError("DispatchPlanner needs at least one candidate")
        if not 0.0 <= margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        self._entries = dict(entries)
        self._margin = margin

    @property
    def candidates(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def plan(self, count: int) -> DispatchPlan:
        """The cheapest predicted plan for a ``count``-image batch.

        Candidates whose shard rule does not admit the batch (it is
        smaller than their ``min_shard_size``) are skipped once an
        incumbent exists — the first entry always produces a plan.
        """
        best: Optional[DispatchPlan] = None
        for name, (model, rule) in self._entries.items():
            if best is not None and not rule.admits(count):
                continue
            shards = rule.shards_for(count)
            predicted = model.predict(count, shards)
            if best is None or predicted < best.predicted_seconds * (
                1.0 - self._margin
            ):
                best = DispatchPlan(
                    backend=name,
                    shards=shards,
                    shard_size=-(-count // shards) if count > 0 else 0,
                    predicted_seconds=predicted,
                    count=count,
                )
        return best


def _time_dispatch(
    backend: RecallBackend,
    codes: np.ndarray,
    seeds: np.ndarray,
    repeats: int,
) -> float:
    """Best-of-``repeats`` wall seconds for one dispatch of this batch."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        backend.recall_batch_seeded(codes, seeds)
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_backend(
    backend: RecallBackend,
    make_batch: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    repeats: int = CALIBRATION_REPEATS,
    max_speedup: Optional[float] = None,
) -> CostModel:
    """Fit a :class:`CostModel` to a prepared backend by timing it.

    ``make_batch(n)`` must return a valid ``(codes, seeds)`` pair of
    ``n`` rows for the served module.  The backend's ``min_shard_size``
    is temporarily raised to force the two fit points through a single
    shard (isolating one fixed cost per dispatch) and then dropped for
    the fan-out point; it is always restored.

    ``max_speedup`` caps the fitted parallel speedup below the usual
    ``workers`` ceiling.  Pass the host core count for backends whose
    parallelism is local (threads, processes): a measured speedup above
    the physical core count is timing noise, and letting it through
    would make the planner fan out on a host that cannot overlap the
    shards.  Leave it ``None`` for backends whose workers live elsewhere
    (remote).
    """
    capabilities = backend.capabilities()
    speedup_ceiling = float(capabilities.workers)
    if max_speedup is not None:
        speedup_ceiling = min(speedup_ceiling, max(1.0, float(max_speedup)))
    small, large = CALIBRATION_SIZES
    saved_min_shard = getattr(backend, "min_shard_size", None)
    try:
        if saved_min_shard is not None:
            backend.min_shard_size = large + 1
        codes_small, seeds_small = make_batch(small)
        codes_large, seeds_large = make_batch(large)
        # Warm up lazily-built state (factorisations, worker imports)
        # outside the timed region.
        backend.recall_batch_seeded(codes_small, seeds_small)
        t_small = _time_dispatch(backend, codes_small, seeds_small, repeats)
        t_large = _time_dispatch(backend, codes_large, seeds_large, repeats)
        marginal = max((t_large - t_small) / (large - small), _MIN_MARGINAL)
        fixed = max(t_small - marginal * small, 0.0)
        samples = {
            "small_batch": float(small),
            "small_seconds": t_small,
            "large_batch": float(large),
            "large_seconds": t_large,
        }
        speedup = 1.0
        if (
            capabilities.shards_batches
            and capabilities.workers > 1
            and saved_min_shard is not None
        ):
            backend.min_shard_size = 1
            codes_par, seeds_par = make_batch(large)
            backend.recall_batch_seeded(codes_par, seeds_par)  # warm fan-out
            t_parallel = _time_dispatch(backend, codes_par, seeds_par, repeats)
            shards = len(contiguous_shards(large, capabilities.workers, 1))
            serialised = shards * fixed + marginal * large
            speedup = min(
                max(serialised / max(t_parallel, 1e-9), 1.0),
                speedup_ceiling,
            )
            samples["parallel_batch"] = float(large)
            samples["parallel_seconds"] = t_parallel
            samples["parallel_shards"] = float(shards)
    finally:
        if saved_min_shard is not None:
            backend.min_shard_size = saved_min_shard
    return CostModel(
        backend=capabilities.name,
        fixed=fixed,
        marginal=marginal,
        workers=capabilities.workers,
        parallel_speedup=speedup,
        samples=samples,
    )
