"""Tests for repro.utils.validation."""

import re

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_monotonic,
    check_positive,
    check_probability,
    check_shape,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3.5) == 3.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_allows_zero_when_requested(self):
        assert check_positive("x", 0.0, allow_zero=True) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0, allow_zero=True)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))


class TestCheckInRange:
    def test_accepts_inside(self):
        assert check_in_range("x", 0.5, 0.0, 1.0) == 0.5

    def test_accepts_bounds_when_inclusive(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_rejects_bounds_when_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2.0, 0.0, 1.0)


class TestFiniteness:
    """Python reals take ``math.isfinite``; everything else keeps ``np.isfinite``."""

    @pytest.mark.parametrize("check", [
        lambda v: check_positive("x", v),
        lambda v: check_in_range("x", v, -1e300, 1e300),
    ])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
        np.float64("nan"), np.float64("inf"), np.float32("nan"), np.float32("-inf"),
    ])
    def test_rejects_non_finite_scalars_with_the_same_message(self, check, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must be finite, got {value!r}')}$"):
            check(value)

    def test_numpy_scalars_pass_through_unchanged(self):
        value = np.float64(2.5)
        assert check_positive("x", value) is value
        assert check_in_range("x", value, 0.0, 3.0) is value
        count = np.int64(4)
        assert check_positive("n", count) is count
        assert check_in_range("n", count, 0, 4) is count
        with pytest.raises(ValueError, match="n must be > 0"):
            check_positive("n", np.int64(0))
        with pytest.raises(ValueError, match=r"n must be in \[0, 3\]"):
            check_in_range("n", np.int64(4), 0, 3)

    def test_python_ints_are_finite_at_any_size(self):
        assert check_positive("n", 2**80) == 2**80
        assert check_in_range("n", True, 0, 1) is True

    def test_array_argument_keeps_numpy_semantics(self):
        assert check_positive("a", np.array([1.5])).tolist() == [1.5]
        with pytest.raises(ValueError, match="a must be finite"):
            check_positive("a", np.array([np.inf]))
        with pytest.raises(ValueError, match="a must be finite"):
            check_in_range("a", np.array([np.nan]), 0.0, 1.0)
        with pytest.raises(ValueError, match="ambiguous"):
            check_positive("a", np.array([1.0, 2.0]))


class TestCheckProbability:
    def test_accepts_probability(self):
        assert check_probability("p", 0.3) == 0.3

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.5)


class TestCheckShape:
    def test_accepts_exact_shape(self):
        array = np.zeros((3, 4))
        out = check_shape("a", array, (3, 4))
        assert out.shape == (3, 4)

    def test_wildcard_dimension(self):
        array = np.zeros((3, 4))
        check_shape("a", array, (-1, 4))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="dimensions"):
            check_shape("a", np.zeros(3), (3, 1))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="axis"):
            check_shape("a", np.zeros((3, 4)), (3, 5))


class TestCheckInteger:
    def test_accepts_int_valued_float(self):
        assert check_integer("n", 4.0) == 4

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            check_integer("n", 4.5)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            check_integer("n", True)

    def test_minimum_enforced(self):
        with pytest.raises(ValueError):
            check_integer("n", 1, minimum=2)


class TestCheckMonotonic:
    def test_accepts_increasing(self):
        out = check_monotonic("x", [1, 2, 3])
        assert list(out) == [1, 2, 3]

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            check_monotonic("x", [1, 1, 2])

    def test_decreasing_mode(self):
        check_monotonic("x", [3, 2, 1], increasing=False)
        with pytest.raises(ValueError):
            check_monotonic("x", [1, 2], increasing=False)
