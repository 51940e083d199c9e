"""Contract tests for the seeded (serving) recall path of the AMM.

``recognise_batch_seeded`` must make each sample's result a pure function
of ``(module, codes, seed)``: invariant under permutation of the batch,
under re-chunking into different micro-batches, and under which engine
replica solved it — and it must not advance any of the module's
sequential random streams.
"""

import numpy as np
import pytest

from repro.crossbar.batched import BatchedCrossbarEngine

from tests.serving.conftest import build_amm


def assert_samples_equal(left, right, rtol=1e-9):
    """Discrete fields identical; analog fields to solver/BLAS precision."""
    assert left.winner_column == right.winner_column
    assert left.winner == right.winner
    assert left.dom_code == right.dom_code
    assert left.accepted == right.accepted
    assert left.tie == right.tie
    assert np.array_equal(left.codes, right.codes)
    np.testing.assert_array_equal(left.events, right.events)
    np.testing.assert_allclose(left.column_currents, right.column_currents, rtol=rtol)
    np.testing.assert_allclose(left.static_power, right.static_power, rtol=rtol)


class TestPureFunctionOfSeed:
    def test_repeat_recall_is_identical(self, serving_amm, request_codes, request_seeds):
        first = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        second = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        for index in range(len(first)):
            assert_samples_equal(first[index], second[index], rtol=0.0)

    def test_permutation_invariance(self, serving_amm, request_codes, request_seeds):
        reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        perm = np.random.default_rng(9).permutation(len(request_seeds))
        permuted = serving_amm.recognise_batch_seeded(
            request_codes[perm], request_seeds[perm]
        )
        for position, original in enumerate(perm):
            assert_samples_equal(permuted[position], reference[int(original)])

    def test_chunking_invariance(self, serving_amm, request_codes, request_seeds):
        reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        for chunk in (1, 5, 24):
            index = 0
            for start in range(0, len(request_seeds), chunk):
                part = serving_amm.recognise_batch_seeded(
                    request_codes[start : start + chunk],
                    request_seeds[start : start + chunk],
                )
                for offset in range(len(part)):
                    assert_samples_equal(part[offset], reference[index])
                    index += 1

    def test_engine_replica_invariance(self, serving_amm, request_codes, request_seeds):
        reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        replica = BatchedCrossbarEngine(
            serving_amm.crossbar,
            delta_v=serving_amm.solver.delta_v,
            termination_resistance=serving_amm.solver.termination_resistance,
        ).prepare(serving_amm.include_parasitics)
        assert replica.prepared
        via_replica = serving_amm.recognise_batch_seeded(
            request_codes, request_seeds, engine=replica
        )
        for index in range(len(reference)):
            assert_samples_equal(reference[index], via_replica[index], rtol=0.0)

    def test_different_seed_changes_noise(self, serving_amm, request_codes):
        one = serving_amm.recognise_batch_seeded(request_codes[:4], [1, 2, 3, 4])
        other = serving_amm.recognise_batch_seeded(request_codes[:4], [5, 6, 7, 8])
        # input_variation noise differs per seed, so the analog currents must.
        assert not np.allclose(one.column_currents, other.column_currents)


class TestNoStateMutation:
    def test_sequential_streams_untouched(self, request_codes, request_seeds):
        busy = build_amm(include_parasitics=True, input_variation=0.05)
        pristine = build_amm(include_parasitics=True, input_variation=0.05)
        busy.recognise_batch_seeded(request_codes, request_seeds)
        busy.recognise_batch_seeded(request_codes[:7], request_seeds[:7])
        after_busy = busy.recognise(request_codes[0])
        after_pristine = pristine.recognise(request_codes[0])
        assert after_busy.winner_column == after_pristine.winner_column
        assert after_busy.dom_code == after_pristine.dom_code
        assert after_busy.tie == after_pristine.tie
        np.testing.assert_array_equal(after_busy.events, after_pristine.events)
        assert np.array_equal(after_busy.codes, after_pristine.codes)
        np.testing.assert_allclose(
            after_busy.column_currents, after_pristine.column_currents, rtol=1e-12
        )

    def test_neuron_bookkeeping_untouched(self, serving_amm, request_codes, request_seeds):
        before = [
            (neuron.state, neuron.switch_count) for neuron in serving_amm.wta.neurons
        ]
        serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        after = [
            (neuron.state, neuron.switch_count) for neuron in serving_amm.wta.neurons
        ]
        assert before == after


class TestValidation:
    def test_seed_count_mismatch_rejected(self, serving_amm, request_codes):
        with pytest.raises(ValueError):
            serving_amm.recognise_batch_seeded(request_codes, [1, 2])

    def test_negative_seed_rejected(self, serving_amm, request_codes):
        with pytest.raises(ValueError):
            serving_amm.recognise_batch_seeded(request_codes[:2], [-1, 0])

    def test_empty_batch_rejected(self, serving_amm):
        with pytest.raises(ValueError):
            serving_amm.recognise_batch_seeded(np.empty((0, 32), dtype=int), [])

    def test_stochastic_neurons_rejected(self, request_codes):
        amm = build_amm(stochastic_dwn=True, include_parasitics=False)
        with pytest.raises(ValueError, match="deterministic"):
            amm.recognise_batch_seeded(request_codes[:2], [1, 2])
