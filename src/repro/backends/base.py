"""The execution-backend contract of the recall engine.

A :class:`RecallBackend` owns *how* batched recalls execute — one
in-process engine or a set of worker agents, spawned locally or remote —
while the physics stays in :class:`~repro.core.amm.AssociativeMemoryModule`
and :class:`~repro.crossbar.batched.BatchedCrossbarEngine`.  Everything a
backend runs goes through the *seeded* recall path, so results are a pure
function of ``(module, codes, seed)`` and therefore invariant across
backend choice, worker count and shard boundaries (pinned by
``tests/backends/test_equivalence.py``).

:class:`EngineSpec` is the construction recipe a backend ships to its
worker agents (flattened by :func:`repro.backends.wire.spec_to_wire`):
the module configuration and programmed conductances, never a
factorisation — each worker rebuilds and re-factorises its own engine
locally.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import TracebackType
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult
from repro.crossbar.batched import BatchedCrossbarEngine


class WorkerCrashedError(RuntimeError):
    """No worker replica could complete a batch.

    Raised when no routable replica remained (every worker agent is dead,
    drained or unreachable), or when one shard lost its replica again
    and again until it exhausted its retry budget.  The batch was *not*
    completed and is safe to retry once a replica is back — callers (and
    the HTTP front end, which maps this to a retryable 503) can
    distinguish it from a permanent per-request failure via
    :attr:`retryable`.
    """

    retryable: bool = True


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend instance can do, for dispatchers and health pages.

    Attributes
    ----------
    name:
        Registry name of the backend ("serial", "fleet", …).
    workers:
        Number of independent execution units (engine replicas).
    shards_batches:
        Whether a single batch may be split across execution units.
    escapes_gil:
        Whether execution units run on separate interpreters, so CPU-bound
        work scales with cores rather than contending for one GIL.
    """

    name: str
    workers: int
    shards_batches: bool
    escapes_gil: bool


@dataclass(frozen=True)
class EngineSpec:
    """Recipe for rebuilding a recall engine somewhere else.

    The spec carries the served module; on the wire
    (:func:`repro.backends.wire.spec_to_wire`) that is its configuration
    plus programmed state (conductances, DAC bank, WTA devices, labels),
    never an engine factorisation.  ``build_engine()`` on the receiving
    side constructs and (optionally) pre-factorises a private
    :class:`~repro.crossbar.batched.BatchedCrossbarEngine` replica.

    Attributes
    ----------
    module:
        The associative memory module to serve.
    """

    module: AssociativeMemoryModule

    @classmethod
    def from_module(cls, module: AssociativeMemoryModule) -> "EngineSpec":
        """Capture the spec of an existing module."""
        return cls(module=module)

    def build_engine(self, prepare: bool = True) -> BatchedCrossbarEngine:
        """Construct a fresh engine replica for this spec's network."""
        engine = BatchedCrossbarEngine(
            self.module.crossbar,
            delta_v=self.module.solver.delta_v,
            termination_resistance=self.module.solver.termination_resistance,
        )
        if prepare:
            engine.prepare(self.module.include_parasitics)
        return engine


class RecallBackend(abc.ABC):
    """Pluggable execution strategy for batched associative recall.

    Implementations own engine replicas (and possibly threads or worker
    agents) but never module state: recalls go through
    :meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`,
    which mutates nothing, so one module can be shared by every execution
    unit.  Lifecycle: construct → :meth:`prepare` (idempotent; builds
    factorisations/workers) → any number of :meth:`recall_batch_seeded`
    calls (thread-safe) → :meth:`close`.
    """

    #: Registry name; implementations override.
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self) -> "RecallBackend":
        """Build factorisations / spawn workers eagerly; returns ``self``."""

    @abc.abstractmethod
    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        """Recall a ``(B, features)`` code batch under per-request seeds."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release workers and engines; idempotent."""

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Describe this instance (name, workers, sharding, GIL escape)."""

    def __enter__(self) -> "RecallBackend":
        self.prepare()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()


def contiguous_shards(
    count: int, workers: int, min_shard_size: int
) -> List[Tuple[int, int]]:
    """Split ``count`` samples into contiguous per-worker shard bounds.

    At most ``workers`` shards, and only when each shard would hold at
    least ``min_shard_size`` samples — small batches stay whole so they
    keep their full batched-GEMM amortisation.  The fleet's
    :func:`~repro.backends.fleet.weighted_shards` is its speed-weighted
    generalisation.

    Guarantees, pinned by
    ``tests/backends/test_sharding.py``:

    * shards partition ``[0, count)`` exactly, in order, no empties;
    * the split is the floor rule ``bounds[i] = i * count // shards``,
      so shard sizes differ by at most one and the bounds are
      bit-stable across platforms (no float rounding involved);
    * at most ``workers`` shards, each holding ``>= min_shard_size``
      samples whenever there is more than one.
    """
    if count <= 0:
        return []
    shards = min(workers, max(1, count // min_shard_size))
    # Floor-based split: shards <= count // min_shard_size <= count, so
    # every shard is non-empty and sizes are floor(count / shards) or
    # that plus one, which is >= min_shard_size whenever shards > 1.
    bounds = [count * index // shards for index in range(shards + 1)]
    return list(zip(bounds[:-1], bounds[1:]))
