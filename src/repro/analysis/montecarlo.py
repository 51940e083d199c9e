"""Generic seeded Monte-Carlo runner.

Process-variation studies (memristor write error, transistor σVT, DWN
thermal noise) repeat an experiment over many independently seeded trials
and summarise the spread.  :class:`MonteCarloRunner` centralises the seed
management (one master seed → independent child generators per trial) so
that every study in the analysis layer is reproducible and its trials are
statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, ensure_rng, spawn_children
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class MonteCarloSummary:
    """Summary statistics of a Monte-Carlo study.

    Attributes
    ----------
    values:
        Raw per-trial results.
    mean, std:
        Sample mean and standard deviation.
    minimum, maximum:
        Extremes over the trials.
    percentile_5, percentile_95:
        5th and 95th percentiles.
    """

    values: np.ndarray
    mean: float
    std: float
    minimum: float
    maximum: float
    percentile_5: float
    percentile_95: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MonteCarloSummary":
        """Build a summary from raw trial values."""
        array = np.asarray(list(values), dtype=float)
        if array.size == 0:
            raise ValueError("values must not be empty")
        return cls(
            values=array,
            mean=float(np.mean(array)),
            std=float(np.std(array, ddof=1)) if array.size > 1 else 0.0,
            minimum=float(np.min(array)),
            maximum=float(np.max(array)),
            percentile_5=float(np.percentile(array, 5)),
            percentile_95=float(np.percentile(array, 95)),
        )


class MonteCarloRunner:
    """Runs a scalar-valued trial function over independent random seeds.

    Parameters
    ----------
    trial:
        Callable taking a ``numpy.random.Generator`` and returning a
        float; one call per trial.
    trials:
        Number of repetitions.
    seed:
        Master seed (or generator) from which the per-trial generators are
        derived.
    batch_trial:
        Optional batch-valued alternative to ``trial``: a callable taking
        a *sequence* of generators (one per trial in the chunk) and
        returning one float per generator.  Studies whose setup can be
        amortised across trials (e.g. the batched recall engine, which
        shares one crossbar factorisation) implement this instead of, or
        in addition to, ``trial``.
    chunk_size:
        How many trials to hand to ``batch_trial`` at a time; ``None``
        passes all of them in one call.  Chunking never changes the
        result: the per-trial generators are derived once from the master
        seed, so the summary is invariant under any ``chunk_size``.
    """

    def __init__(
        self,
        trial: Optional[Callable[[np.random.Generator], float]] = None,
        trials: int = 20,
        seed: RandomState = None,
        batch_trial: Optional[
            Callable[[Sequence[np.random.Generator]], Sequence[float]]
        ] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        check_integer("trials", trials, minimum=1)
        if trial is None and batch_trial is None:
            raise ValueError("either trial or batch_trial must be provided")
        if chunk_size is not None:
            check_integer("chunk_size", chunk_size, minimum=1)
        self.trial = trial
        self.batch_trial = batch_trial
        self.trials = trials
        self.chunk_size = chunk_size
        self._rng = ensure_rng(seed)

    def run(self) -> MonteCarloSummary:
        """Execute all trials and return the summary statistics."""
        generators = spawn_children(self._rng, self.trials)
        # One call (batch) or one chunk (scalar) by default, so batch
        # setup is amortised over every trial.
        step = self.chunk_size or self.trials
        values: List[float] = []
        for start in range(0, self.trials, step):
            chunk = generators[start : start + step]
            if self.batch_trial is None:
                outcomes = [self.trial(generator) for generator in chunk]
            else:
                outcomes = list(self.batch_trial(chunk))
            if len(outcomes) != len(chunk):
                raise ValueError(
                    f"batch_trial returned {len(outcomes)} values for a "
                    f"chunk of {len(chunk)} trials"
                )
            values.extend(float(value) for value in outcomes)
        return MonteCarloSummary.from_values(values)

