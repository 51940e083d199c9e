"""The sharding rule's contract, pinned bit-exactly.

``contiguous_shards`` is the single rule every parallel backend relies
on, so its guarantees are pinned here rather than implied by backend
behaviour:

* **capacity regression** — the pre-fix rule capped the shard count at
  ``workers`` even when ``max_shard_size`` required more shards, returning
  shards larger than ``max_shard_size`` whenever
  ``count > workers * max_shard_size``; the process backend would have
  written past its preallocated shared-memory blocks.  Capacity now beats
  the worker cap.
* **floor split** — bounds are ``i * count // shards``, pure integer
  arithmetic; the old ``np.linspace(...).round()`` rounded half-to-even
  through floats, which is both platform-sensitive and able to produce a
  remainder shard below ``min_shard_size``.
* **min/max guarantees** — every shard respects ``max_shard_size``
  always, and ``min_shard_size`` whenever the min rule set the shard
  count (capacity wins when the two conflict).
"""

from __future__ import annotations

import pytest

from repro.backends import contiguous_shards

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


class TestCapacityRegression:
    def test_oversized_batch_never_exceeds_max_shard_size(self):
        """Regression: count > workers * max_shard_size must raise the
        shard count beyond ``workers``, never return oversized shards.

        Pre-fix this returned two shards of 50 samples against a
        max_shard_size of 10 — a 5x overrun of any buffer sized to the
        declared maximum."""
        shards = contiguous_shards(100, 2, 1, max_shard_size=10)
        assert all(end - begin <= 10 for begin, end in shards)
        assert len(shards) == 10
        assert shards[0][0] == 0 and shards[-1][1] == 100

    def test_capacity_beats_worker_cap_generally(self):
        for count, workers, max_shard in ((129, 2, 64), (7, 1, 2), (1000, 4, 3)):
            shards = contiguous_shards(count, workers, 1, max_shard_size=max_shard)
            assert all(end - begin <= max_shard for begin, end in shards)

    def test_capacity_beats_min_shard_size(self):
        """When max_shard_size forces more shards than the min rule would
        allow, capacity wins: shards may drop below min_shard_size but
        never overrun max_shard_size."""
        shards = contiguous_shards(20, 8, 8, max_shard_size=4)
        assert len(shards) == 5
        assert all(end - begin <= 4 for begin, end in shards)

    def test_invalid_max_shard_size_raises(self):
        with pytest.raises(ValueError, match="max_shard_size"):
            contiguous_shards(10, 2, 1, max_shard_size=0)


class TestFloorSplitPin:
    def test_bounds_are_the_floor_rule_bit_exactly(self):
        """The split *is* ``i * count // shards`` — pinned so the cost
        model (and any future reimplementation) can predict shard sizes
        exactly without calling the function."""
        for count, workers, min_shard in (
            (10, 4, 2),
            (9, 4, 2),
            (24, 2, 4),
            (400, 8, 1),
            (7, 3, 2),
        ):
            shards = contiguous_shards(count, workers, min_shard)
            n = len(shards)
            expected = [
                (count * i // n, count * (i + 1) // n) for i in range(n)
            ]
            assert shards == expected

    def test_small_batches_stay_whole(self):
        assert contiguous_shards(3, 4, 4) == [(0, 3)]
        assert contiguous_shards(1, 8, 1) == [(0, 1)]

    def test_empty_input(self):
        assert contiguous_shards(0, 4, 1) == []
        assert contiguous_shards(-3, 4, 1) == []


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=2000),
    workers=st.integers(min_value=1, max_value=16),
    min_shard=st.integers(min_value=1, max_value=64),
    max_shard=st.one_of(st.none(), st.integers(min_value=1, max_value=128)),
)
def test_sharding_contract(count, workers, min_shard, max_shard):
    """Every guarantee the docstring makes, for arbitrary workloads."""
    shards = contiguous_shards(count, workers, min_shard, max_shard_size=max_shard)

    # Exact, ordered, gap-free partition of [0, count) with no empties.
    assert shards[0][0] == 0 and shards[-1][1] == count
    assert all(b == c for (_, b), (c, _) in zip(shards, shards[1:]))
    assert all(end > begin for begin, end in shards)

    sizes = [end - begin for begin, end in shards]

    # Balanced: sizes differ by at most one across the split.
    assert max(sizes) - min(sizes) <= 1

    # max_shard_size is a hard ceiling, always.
    if max_shard is not None:
        assert max(sizes) <= max_shard

    # min_shard_size holds whenever the min rule set the shard count —
    # i.e. unless max_shard_size forced more shards than the min rule
    # would have chosen.
    min_rule_shards = min(workers, max(1, count // min_shard))
    if len(shards) == min_rule_shards and len(shards) > 1:
        assert min(sizes) >= min_shard

    # The worker cap holds unless capacity required exceeding it.
    if max_shard is None or count <= workers * max_shard:
        assert len(shards) <= workers
