"""Cross-backend equivalence matrix.

The acceptance contract of the pluggable-backend refactor: for the same
per-request seeds, every backend — serial (however many callers share
it) and a fleet of spawned local worker agents (any shard boundary) —
returns *identical* winner codes, DOM codes, acceptance/tie flags and
event counters, and solver-precision-equal analog outputs.  The reference is the module's own
seeded engine; all backends run the same arithmetic on replicas of the
same network, so the discrete outputs must be exactly equal and the
analog outputs bit-identical in practice (asserted to 1e-12 relative to
stay robust to BLAS build differences).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import SerialBackend, contiguous_shards


def assert_results_equal(result, reference, rtol=1e-12):
    assert np.array_equal(result.winner_column, reference.winner_column)
    assert np.array_equal(result.winner, reference.winner)
    assert np.array_equal(result.dom_code, reference.dom_code)
    assert np.array_equal(result.accepted, reference.accepted)
    assert np.array_equal(result.tie, reference.tie)
    assert np.array_equal(result.codes, reference.codes)
    np.testing.assert_array_equal(result.events, reference.events)
    np.testing.assert_allclose(
        result.column_currents, reference.column_currents, rtol=rtol
    )
    np.testing.assert_allclose(result.static_power, reference.static_power, rtol=rtol)


class TestSerialBackend:
    def test_matches_module_engine(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        with SerialBackend(backend_amm) as backend:
            result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_concurrent_callers_share_one_engine(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        """The serving default: one SerialBackend shared by concurrent
        callers, each getting the answer it would get alone."""
        import concurrent.futures

        with SerialBackend(backend_amm) as backend:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        backend.recall_batch_seeded, request_codes, request_seeds
                    )
                    for _ in range(4)
                ]
                for future in futures:
                    assert_results_equal(future.result(timeout=30.0), reference_results)


class TestSpawnedFleetBackend:
    def test_matches_reference(
        self, spawned_fleet, request_codes, request_seeds, reference_results
    ):
        result = spawned_fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_shard_boundary_invariance(
        self, backend_amm, spawned_fleet, request_codes, request_seeds, reference_results
    ):
        """Different slices (hence different shard splits) agree sample-for-sample."""
        for begin, end in [(0, 5), (3, 24), (0, 24)]:
            result = spawned_fleet.recall_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            chunk = backend_amm.recognise_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            assert_results_equal(result, chunk)

    def test_large_batch_matches_reference(
        self, backend_amm, spawned_fleet, request_codes, request_seeds
    ):
        """A batch many shard minimums long splits by measured replica
        speed and still answers every row as the module does."""
        big_codes = np.tile(request_codes, (8, 1))[:160]
        big_seeds = np.arange(160, dtype=np.int64) + 11
        result = spawned_fleet.recall_batch_seeded(big_codes, big_seeds)
        reference = backend_amm.recognise_batch_seeded(big_codes, big_seeds)
        assert_results_equal(result, reference)

    def test_validation_errors_transported(self, spawned_fleet, request_codes):
        with pytest.raises(ValueError):
            spawned_fleet.recall_batch_seeded(
                np.full_like(request_codes, 99), np.arange(request_codes.shape[0])
            )
        # The agents stay healthy after a transported error.
        result = spawned_fleet.recall_batch_seeded(
            request_codes[:2], np.array([1, 2], dtype=np.int64)
        )
        assert len(result) == 2


class TestEvaluateThroughBackends:
    def test_evaluate_invariant_across_backends(
        self, backend_amm, request_codes, spawned_fleet
    ):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        serial = backend_amm.evaluate(request_codes, labels, backend="serial")
        fleet = backend_amm.evaluate(request_codes, labels, backend=spawned_fleet)
        # Discrete-derived statistics are exactly invariant; mean static
        # power is analog and agrees to solver precision (a different
        # shard split is a different summation order).
        assert fleet["accuracy"] == serial["accuracy"]
        assert fleet["acceptance_rate"] == serial["acceptance_rate"]
        assert fleet["tie_rate"] == serial["tie_rate"]
        assert fleet["mean_static_power"] == pytest.approx(
            serial["mean_static_power"], rel=1e-12
        )

    def test_workers_without_backend_rejected(self, backend_amm, request_codes):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        with pytest.raises(ValueError, match="backend"):
            backend_amm.evaluate(request_codes, labels, workers=4)
        with pytest.raises(ValueError, match="backend"):
            backend_amm.evaluate(request_codes, labels, base_seed=7)

    def test_evaluate_invariant_under_batch_size(self, backend_amm, request_codes):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        whole = backend_amm.evaluate(request_codes, labels, backend="serial")
        chunked = backend_amm.evaluate(
            request_codes, labels, batch_size=5, backend="serial"
        )
        assert chunked["accuracy"] == whole["accuracy"]
        assert chunked["acceptance_rate"] == whole["acceptance_rate"]
        assert chunked["tie_rate"] == whole["tie_rate"]
        assert chunked["mean_static_power"] == pytest.approx(
            whole["mean_static_power"], rel=1e-12
        )


class TestSharding:
    def test_contiguous_shards_cover_exactly(self):
        for count in (1, 5, 24, 100):
            for workers in (1, 2, 3, 8):
                for min_shard in (1, 4, 16):
                    shards = contiguous_shards(count, workers, min_shard)
                    assert shards[0][0] == 0 and shards[-1][1] == count
                    for (a, b), (c, d) in zip(shards, shards[1:]):
                        assert b == c
                    assert len(shards) <= workers

    def test_small_batches_stay_whole(self):
        assert contiguous_shards(6, 3, 16) == [(0, 6)]

    def test_empty_input(self):
        assert contiguous_shards(0, 3, 16) == []
