"""Generated inputs depend on the seed and on nothing else."""

import numpy as np

from perfbench import inputs


def test_same_seed_same_stream():
    first = inputs.request_stream(3, inputs.BULK, 16, 8, 400)
    second = inputs.request_stream(3, inputs.BULK, 16, 8, 400)
    assert np.array_equal(first.rows, second.rows)
    assert np.array_equal(first.seeds, second.seeds)


def test_different_seed_or_class_different_stream():
    base = inputs.request_stream(3, inputs.BULK, 16, 8, 400)
    other_seed = inputs.request_stream(4, inputs.BULK, 16, 8, 400)
    other_class = inputs.request_stream(3, inputs.SERVE_JSON, 16, 8, 400)
    assert not np.array_equal(base.rows, other_seed.rows)
    assert not np.array_equal(base.seeds, other_seed.seeds)
    assert not np.array_equal(base.rows, other_class.rows)


def test_stream_ranges_and_cycling():
    stream = inputs.request_stream(1, inputs.SERVE_BINARY, 4, 64, 400)
    assert stream.rows.min() >= 0 and stream.rows.max() < 400
    assert stream.seeds.min() >= 0 and stream.seeds.max() < inputs.SEED_LIMIT
    table = np.arange(400 * 3).reshape(400, 3)
    codes, seeds = stream.request(5, table)
    again, seeds_again = stream.request(1, table)
    assert np.array_equal(codes, again) and np.array_equal(seeds, seeds_again)
    assert codes.shape == (64, 3)


def test_evaluation_inputs_are_seeded_noisy_templates():
    templates = np.random.default_rng(0).integers(0, 32, size=(128, 40))
    first, columns = inputs.evaluation_inputs(templates, 4, 31, seed=9)
    second, columns_again = inputs.evaluation_inputs(templates, 4, 31, seed=9)
    third, _ = inputs.evaluation_inputs(templates, 4, 31, seed=10)
    assert np.array_equal(first, second) and np.array_equal(columns, columns_again)
    assert not np.array_equal(first, third)
    assert first.shape == (4, 128)
    assert first.min() >= 0 and first.max() <= 31
    assert np.all(np.abs(first - templates[:, columns].T) <= 2)
