"""The one input contract of the module, the WTA and every backend.

Codes and request seeds are integers: a float array is accepted only when
every value is integral, so ``2.5`` is refused, never truncated to ``2``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np


def integral_array(name: str, values: Any) -> np.ndarray:
    """``values`` as int64; ``ValueError`` unless each value is an integer.

    Integer dtypes convert without reading a value.  Others are compared
    with their cast, which a fraction, NaN, infinity or value beyond int64
    never equals.
    """
    array = np.asarray(values)
    if array.dtype.kind in "biu":
        return array.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        cast = array.astype(np.int64)
    if not np.array_equal(cast, array):
        raise ValueError(f"{name} must hold integers, got non-integral values")
    return cast


def check_batch(
    name: str,
    batch: Any,
    width: int,
    request_seeds: Any = None,
    dtype: type = np.int64,
    allow_empty: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A validated ``(B, width)`` batch and its int64 seeds (or ``None``).

    ``dtype=np.int64`` reads codes (integral values only), ``float``
    currents or conductances.  Rows are required unless ``allow_empty``;
    ``request_seeds`` must be one non-negative integer per row.
    """
    if dtype is np.int64:
        array = integral_array(name, batch)
    else:
        array = np.asarray(batch, dtype=dtype)
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (B, {width}), got {array.shape}")
    if not allow_empty and array.shape[0] == 0:
        raise ValueError(f"{name} must not be empty")
    if request_seeds is None:
        return array, None
    seeds = integral_array("request_seeds", request_seeds)
    if seeds.shape != (array.shape[0],):
        raise ValueError(
            f"request_seeds must have shape ({array.shape[0]},), got {seeds.shape}"
        )
    if seeds.size and seeds.min() < 0:
        raise ValueError("request_seeds must be non-negative")
    return array, seeds
