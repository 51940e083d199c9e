"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    ensure_rng,
    spawn_children,
    substream_standard_normal,
    substream_state,
)

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
KEYS = st.sampled_from([0, 1])


def seed_sequence_state(seed, key):
    """The definition the vectorised substream keying must reproduce."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(
        4, np.uint64
    )


def test_ensure_rng_from_int_is_deterministic():
    a = ensure_rng(42).random(5)
    b = ensure_rng(42).random(5)
    assert np.allclose(a, b)


def test_ensure_rng_passthrough_generator():
    generator = np.random.default_rng(1)
    assert ensure_rng(generator) is generator


def test_ensure_rng_none_gives_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_spawn_children_count_and_independence():
    parent = ensure_rng(7)
    children = spawn_children(parent, 4)
    assert len(children) == 4
    draws = [child.random(3) for child in children]
    # All child streams must differ from one another.
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(draws[i], draws[j])


def test_spawn_children_deterministic_given_parent_seed():
    first = [g.random() for g in spawn_children(ensure_rng(3), 3)]
    second = [g.random() for g in spawn_children(ensure_rng(3), 3)]
    assert first == second


def test_spawn_children_negative_count_rejected():
    with pytest.raises(ValueError):
        spawn_children(ensure_rng(0), -1)


def test_spawn_children_zero_count():
    assert spawn_children(ensure_rng(0), 0) == []


class TestSubstreamState:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, key=KEYS)
    @example(seed=0, key=0)
    @example(seed=0, key=1)
    @example(seed=2**32 - 1, key=0)
    @example(seed=2**32 - 1, key=1)
    @example(seed=2**32, key=0)
    @example(seed=2**32, key=1)
    @example(seed=2**63 - 1, key=0)
    @example(seed=2**63 - 1, key=1)
    def test_matches_seed_sequence(self, seed, key):
        words = substream_state(np.array([seed], dtype=np.int64), key)
        assert words.dtype == np.uint64
        assert np.array_equal(words[0], seed_sequence_state(seed, key))

    @settings(max_examples=50, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=40), key=KEYS)
    def test_every_row_of_a_batch_matches(self, seeds, key):
        words = substream_state(np.array(seeds, dtype=np.int64), key)
        expected = np.array([seed_sequence_state(seed, key) for seed in seeds])
        assert np.array_equal(words, expected)

    def test_rejects_negative_seeds_and_wide_keys(self):
        with pytest.raises(ValueError):
            substream_state(np.array([3, -1]), 0)
        with pytest.raises(ValueError):
            substream_state(np.array([3]), 2**32)
        with pytest.raises(ValueError):
            substream_state(np.array([[3]]), 0)


def test_substream_standard_normal_is_each_seed_sequence_stream():
    seeds = np.array([0, 5, 2**32, 2**63 - 1], dtype=np.int64)
    draws = substream_standard_normal(seeds, 1, (3, 2))
    assert draws.shape == (4, 3, 2)
    for seed, row in zip(seeds, draws):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(1,)))
        assert np.array_equal(row, rng.standard_normal((3, 2)))
