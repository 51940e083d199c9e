"""Tests for the generic Monte-Carlo runner."""

import numpy as np
import pytest

from repro.analysis.montecarlo import MonteCarloRunner, MonteCarloSummary


class TestSummary:
    def test_summary_statistics(self):
        summary = MonteCarloSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.percentile_5 <= summary.percentile_95

    def test_single_value_has_zero_std(self):
        summary = MonteCarloSummary.from_values([2.0])
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloSummary.from_values([])


class TestRunner:
    def test_runner_collects_requested_trials(self):
        runner = MonteCarloRunner(lambda rng: rng.random(), trials=16, seed=1)
        summary = runner.run()
        assert summary.values.shape == (16,)
        assert 0.0 <= summary.mean <= 1.0

    def test_runner_reproducible_for_seed(self):
        a = MonteCarloRunner(lambda rng: rng.random(), trials=8, seed=2).run()
        b = MonteCarloRunner(lambda rng: rng.random(), trials=8, seed=2).run()
        assert np.allclose(a.values, b.values)

    def test_runner_trials_independent(self):
        summary = MonteCarloRunner(lambda rng: rng.random(), trials=32, seed=3).run()
        assert summary.std > 0

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(lambda rng: 0.0, trials=0)

    def test_gaussian_mean_estimation(self):
        runner = MonteCarloRunner(lambda rng: rng.normal(5.0, 1.0), trials=400, seed=4)
        summary = runner.run()
        assert summary.mean == pytest.approx(5.0, abs=0.2)
        assert summary.std == pytest.approx(1.0, rel=0.2)


class TestChunks:
    """Chunked batch trials: ``chunk_size`` only changes the call sizes."""

    def test_default_is_one_batch_call(self):
        seen_chunks = []

        def batch(generators):
            seen_chunks.append(len(generators))
            return [float(rng.random()) for rng in generators]

        whole = MonteCarloRunner(batch_trial=batch, trials=24, seed=9).run()
        assert seen_chunks == [24]
        seen_chunks.clear()
        chunked = MonteCarloRunner(
            batch_trial=batch, trials=24, chunk_size=7, seed=9
        ).run()
        assert seen_chunks == [7, 7, 7, 3]
        assert np.array_equal(whole.values, chunked.values)

    def test_chunk_length_mismatch_detected(self):
        with pytest.raises(ValueError, match="returned"):
            MonteCarloRunner(
                batch_trial=lambda generators: [0.0], trials=8, chunk_size=4
            ).run()
