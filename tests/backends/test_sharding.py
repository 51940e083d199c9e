"""The sharding rule's contract, pinned bit-exactly.

``contiguous_shards`` is the unweighted rule the fleet's routing
(``weighted_shards``) generalises, so its guarantees are pinned here
rather than implied by backend behaviour:

* **floor split** — bounds are ``i * count // shards``, pure integer
  arithmetic; the old ``np.linspace(...).round()`` rounded half-to-even
  through floats, which is both platform-sensitive and able to produce a
  remainder shard below ``min_shard_size``.
* **min/balance/partition guarantees** — an exact partition into at most
  ``workers`` shards whose sizes differ by at most one, each holding at
  least ``min_shard_size`` samples whenever there is more than one.
"""

from __future__ import annotations

import pytest

from repro.backends import contiguous_shards

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


class TestFloorSplitPin:
    def test_bounds_are_the_floor_rule_bit_exactly(self):
        """The split *is* ``i * count // shards`` — pinned so any future
        reimplementation can predict shard sizes exactly without calling
        the function."""
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
)
def test_sharding_contract(count, workers, min_shard):
    """Every guarantee the docstring makes, for arbitrary workloads."""
    shards = contiguous_shards(count, workers, min_shard)

    # Exact, ordered, gap-free partition of [0, count) with no empties.
    assert shards[0][0] == 0 and shards[-1][1] == count
    assert all(b == c for (_, b), (c, _) in zip(shards, shards[1:]))
    assert all(end > begin for begin, end in shards)

    sizes = [end - begin for begin, end in shards]

    # Balanced: sizes differ by at most one across the split.
    assert max(sizes) - min(sizes) <= 1

    # At most one shard per worker, and as many as the min rule allows.
    assert len(shards) == min(workers, max(1, count // min_shard))

    # min_shard_size holds whenever the batch is split at all.
    if len(shards) > 1:
        assert min(sizes) >= min_shard
