"""Small argument-validation helpers.

Device and circuit models take many numeric parameters; these helpers keep
the constructors readable while producing consistent, descriptive error
messages.  All helpers return the validated value so they can be used
inline in assignments.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]


def _is_finite(value):
    """``np.isfinite(value)``, answered without numpy for a Python real.

    ``math.isfinite`` on a ``float`` (``np.float64`` included) is ~15x
    cheaper than the ufunc, and the validators run on every recalled row.
    A Python ``int`` is exact, hence finite, however large.
    """
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    return np.isfinite(value)


def check_positive(name: str, value: Number, allow_zero: bool = False) -> Number:
    """Validate that ``value`` is positive (or non-negative).

    Parameters
    ----------
    name:
        Parameter name used in the error message.
    value:
        Numeric value to validate.
    allow_zero:
        If True, zero is accepted.

    Returns
    -------
    The validated value.
    """
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: Number,
    low: Number,
    high: Number,
    inclusive: bool = True,
) -> Number:
    """Validate that ``value`` lies within ``[low, high]`` (or ``(low, high)``)."""
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Validate that ``value`` is a probability in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_shape(
    name: str, array: np.ndarray, expected: Sequence[int]
) -> np.ndarray:
    """Validate that ``array`` has exactly the expected shape.

    ``-1`` entries in ``expected`` act as wildcards for that dimension.
    """
    array = np.asarray(array)
    expected_tuple: Tuple[int, ...] = tuple(expected)
    if array.ndim != len(expected_tuple):
        raise ValueError(
            f"{name} must have {len(expected_tuple)} dimensions, "
            f"got shape {array.shape}"
        )
    for axis, (actual, wanted) in enumerate(zip(array.shape, expected_tuple)):
        if wanted != -1 and actual != wanted:
            raise ValueError(
                f"{name} has shape {array.shape}, expected {expected_tuple} "
                f"(mismatch on axis {axis})"
            )
    return array


def check_integer(name: str, value: Number, minimum: int = None) -> int:
    """Validate that ``value`` is an integer (optionally at least ``minimum``)."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_monotonic(name: str, values: Iterable[Number], increasing: bool = True) -> np.ndarray:
    """Validate that a sequence is strictly monotonic."""
    arr = np.asarray(list(values), dtype=float)
    diffs = np.diff(arr)
    if increasing and not np.all(diffs > 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not increasing and not np.all(diffs < 0):
        raise ValueError(f"{name} must be strictly decreasing")
    return arr
