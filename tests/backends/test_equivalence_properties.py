"""Property-based cross-backend equivalence: serial ≡ fleet, over
spawned and over in-process agents, bit-identically, on the ideal path.

The hand-picked matrix in ``test_equivalence.py`` pins the parasitic
path to solver precision; this suite drives seeded-random workloads
(shared strategies in ``strategies.py``) through every backend and
asserts **exact** equality of every output field — on the ideal path
there is no stacked-LAPACK shape sensitivity, so any difference at all
is a transport or seeding bug, not numerics.

Two layers, trading construction cost for coverage:

* random *geometries* are checked on the serial backend (a fresh
  module per example): a batch equals its two parts recalled apart;
* random *batch shapes/contents/seeds* run against long-lived
  fleet replica sets on one shared geometry (agent boot is the
  expensive part, and the transport is geometry-agnostic).  One fleet
  adopts the session's two spawned agents (``spawned_fleet``); each
  connection rebuilds its own engine for this geometry, so the
  properties run against real out-of-process replicas without a second
  agent boot.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import HealthCheck, given, settings

from repro.backends import (
    FleetSupervisor,
    SerialBackend,
    WorkerServer,
)
from tests.backends.conftest import spawned_addresses
from tests.backends.strategies import build_test_amm, geometries, recall_batches

#: Shared geometry of the long-lived pools (ideal path, input variation
#: on so the per-request noise substream is part of every property).
FEATURES = 16
TEMPLATES = 4
GEOMETRY_SEED = 11


def assert_bit_identical(result, reference):
    """Every field exactly equal — no tolerances on the ideal path."""
    assert np.array_equal(result.winner_column, reference.winner_column)
    assert np.array_equal(result.winner, reference.winner)
    assert np.array_equal(result.dom_code, reference.dom_code)
    assert np.array_equal(result.accepted, reference.accepted)
    assert np.array_equal(result.tie, reference.tie)
    assert np.array_equal(result.codes, reference.codes)
    assert np.array_equal(result.column_currents, reference.column_currents)
    assert np.array_equal(result.static_power, reference.static_power)
    np.testing.assert_array_equal(result.events, reference.events)


@pytest.fixture(scope="module")
def ideal_amm():
    return build_test_amm(FEATURES, TEMPLATES, GEOMETRY_SEED)


@pytest.fixture(scope="module")
def backend_matrix(ideal_amm, spawned_fleet):
    """serial, a fleet over the spawned agents and a fleet over
    in-process agents, one prepared replica set each."""
    serial = SerialBackend(ideal_amm).prepare()
    fleet = FleetSupervisor(
        ideal_amm,
        worker_addresses=spawned_addresses(spawned_fleet),
        min_shard_size=2,
        heartbeat_interval=0.5,
    ).prepare()
    workers = [WorkerServer().start(), WorkerServer().start()]
    in_process = FleetSupervisor(
        ideal_amm,
        worker_addresses=[server.address for server in workers],
        min_shard_size=2,
        heartbeat_interval=0.5,
    ).prepare()
    yield {"serial": serial, "fleet": fleet, "in_process": in_process}
    for backend in (serial, fleet, in_process):
        backend.close()
    for server in workers:
        server.close()


class TestBackendMatrixProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=recall_batches(FEATURES))
    def test_all_backends_bit_identical(self, backend_matrix, case):
        """For any batch shape, content and seed vector: three backends,
        one answer, to the last bit."""
        codes, seeds = case
        reference = backend_matrix["serial"].recall_batch_seeded(codes, seeds)
        for name in ("fleet", "in_process"):
            result = backend_matrix[name].recall_batch_seeded(codes, seeds)
            assert_bit_identical(result, reference)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=recall_batches(FEATURES))
    def test_splitting_a_batch_changes_nothing(self, backend_matrix, case):
        """Dispatching the same rows as one batch or one-by-one is
        invisible in the results (the serving micro-batcher relies on
        exactly this)."""
        codes, seeds = case
        whole = backend_matrix["in_process"].recall_batch_seeded(codes, seeds)
        for index in range(codes.shape[0]):
            single = backend_matrix["in_process"].recall_batch_seeded(
                codes[index : index + 1], seeds[index : index + 1]
            )[0]
            reference = whole[index]
            assert single.winner_column == reference.winner_column
            assert single.winner == reference.winner
            assert single.dom_code == reference.dom_code
            assert single.accepted == reference.accepted
            assert single.tie == reference.tie
            assert np.array_equal(single.codes, reference.codes)
            assert np.array_equal(
                single.column_currents, reference.column_currents
            )
            assert single.static_power == reference.static_power
            np.testing.assert_array_equal(single.events, reference.events)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=recall_batches(FEATURES))
    def test_equal_seeds_equal_results(self, backend_matrix, case):
        """Determinism per row: re-running any row with the same seed on
        a different backend replica reproduces it exactly."""
        codes, seeds = case
        first = backend_matrix["fleet"].recall_batch_seeded(codes, seeds)
        second = backend_matrix["in_process"].recall_batch_seeded(codes, seeds)
        assert_bit_identical(second, first)


class TestGeometryProperties:
    @settings(max_examples=8, deadline=None)
    @given(geometry=geometries())
    def test_parts_concatenate_to_whole(self, geometry):
        """A whole batch equals its two parts, split at a random row,
        recalled apart and concatenated, for arbitrary module geometries
        and construction seeds, not just the suite's pet 32x6 module — the
        row independence every sharding backend and the micro-batcher
        rely on."""
        from repro.core.amm import concatenate_batch_results

        amm = build_test_amm(**geometry)
        rng = np.random.default_rng(geometry["seed"] + 1)
        codes = rng.integers(0, 32, size=(6, geometry["features"]))
        seeds = rng.integers(0, 2**31 - 1, size=6)
        split = int(rng.integers(1, 6))
        with SerialBackend(amm) as serial:
            whole = serial.recall_batch_seeded(codes, seeds)
            parts = concatenate_batch_results(
                [
                    serial.recall_batch_seeded(codes[:split], seeds[:split]),
                    serial.recall_batch_seeded(codes[split:], seeds[split:]),
                ]
            )
        assert_bit_identical(parts, whole)

    @settings(max_examples=8, deadline=None)
    @given(geometry=geometries())
    def test_sharding_rule_covers_exactly(self, geometry):
        """The unweighted shard rule (which the fleet's routing
        generalises) always partitions [0, B) exactly, whatever the
        workload shape."""
        from repro.backends import contiguous_shards

        rng = np.random.default_rng(geometry["seed"])
        count = int(rng.integers(1, 200))
        workers = int(rng.integers(1, 9))
        min_shard = int(rng.integers(1, 33))
        shards = contiguous_shards(count, workers, min_shard)
        assert shards[0][0] == 0 and shards[-1][1] == count
        assert all(b == c for (_, b), (c, _) in zip(shards, shards[1:]))
        assert len(shards) <= workers
