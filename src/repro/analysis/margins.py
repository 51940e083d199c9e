"""Detection-margin analyses (Fig. 9 of the paper).

The *detection margin* is the relative separation between the correct
(best-matching) column's output current and the strongest competing
column.  The WTA can only identify the winner reliably when this margin
exceeds its resolution, so the paper uses the margin to choose:

* the memristor conductance range (Fig. 9a): too-resistive memristors
  (small ``G_TS``) make the DTCS-DAC characteristic non-linear, squeezing
  the margin; too-conductive memristors draw large currents whose IR drops
  across the wire parasitics corrupt the signal — the optimum lies between;
* the terminal voltage ΔV (Fig. 9b): smaller ΔV saves static power but the
  (fixed) parasitic drops eat a growing fraction of the signal.

The analyses here rebuild the module for each sweep point (Fig. 9a: same
template data, different conductance mapping; Fig. 9b: the same
programmed array at another ΔV), drive it with a set of evaluation
inputs through the calibrated DACs, solve the full parasitic network in
one pass through the batched crossbar engine and report margin statistics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.amm import AssociativeMemoryModule
from repro.core.config import DesignParameters, default_parameters
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MarginPoint:
    """One point of a detection-margin sweep.

    Attributes
    ----------
    parameter:
        The swept quantity (minimum memristor resistance in ohms for the
        range sweep, ΔV in volts for the voltage sweep).
    mean_margin:
        Mean relative margin between the true-class column and the best
        competing column over the evaluation inputs.
    min_margin:
        Worst-case margin over the evaluation inputs.
    mean_margin_ideal:
        Mean margin of the same inputs with wire parasitics removed
        (isolates the non-linearity contribution).
    """

    parameter: float
    mean_margin: float
    min_margin: float
    mean_margin_ideal: float


def detection_margins(
    amm: AssociativeMemoryModule,
    input_codes_batch: np.ndarray,
    true_columns: Sequence[int],
    include_parasitics: bool = True,
) -> np.ndarray:
    """Per-input detection margins for a programmed AMM.

    The whole input set is solved in one pass through the module's
    amortised crossbar engine
    (:meth:`~repro.core.amm.AssociativeMemoryModule.column_solution_batch`),
    so a sweep point costs one Woodbury-updated batch instead of ``n``
    sparse MNA solves; the margin of each input is the relative separation
    of its true column's current over the strongest competitor, ``-1`` when
    the true column delivers no current.

    Parameters
    ----------
    amm:
        The associative memory module to evaluate.
    input_codes_batch:
        Integer feature vectors, shape ``(n, features)``.
    true_columns:
        Index of the correct column for each input.
    include_parasitics:
        Whether to solve the full parasitic network.
    """
    input_codes_batch = np.asarray(input_codes_batch)
    true_columns = np.asarray(true_columns, dtype=np.int64)
    count = input_codes_batch.shape[0]
    if count == 0:
        return np.empty(0)
    solution = amm.column_solution_batch(
        input_codes_batch, include_parasitics=include_parasitics
    )
    currents = solution.column_currents
    sample_index = np.arange(count)
    true_currents = currents[sample_index, true_columns]
    competitors = currents.copy()
    competitors[sample_index, true_columns] = -np.inf
    best_other = competitors.max(axis=1)
    positive = true_currents > 0
    margins = np.full(count, -1.0)
    margins[positive] = (
        true_currents[positive] - best_other[positive]
    ) / true_currents[positive]
    return margins


def _evaluation_inputs(
    template_codes: np.ndarray,
    num_inputs: int,
    input_bits: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build evaluation inputs as noisy versions of randomly chosen templates.

    Matching the paper's setup (real images correlated against their class
    templates), each evaluation input is one stored template perturbed by
    quantisation-scale noise, so its true column is known exactly.
    """
    features, columns = template_codes.shape
    max_code = 2**input_bits - 1
    chosen = rng.choice(columns, size=num_inputs, replace=num_inputs > columns)
    inputs = np.empty((num_inputs, features), dtype=np.int64)
    for index, column in enumerate(chosen):
        noise = rng.integers(-2, 3, size=features)
        inputs[index] = np.clip(template_codes[:, column] + noise, 0, max_code)
    return inputs, chosen.astype(np.int64)


def conductance_range_sweep(
    template_codes: np.ndarray,
    r_min_values: Sequence[float],
    resistance_ratio: float = 32.0,
    parameters: Optional[DesignParameters] = None,
    num_inputs: int = 4,
    seed: RandomState = 7,
) -> List[MarginPoint]:
    """Fig. 9a: detection margin versus the memristor resistance range.

    For each minimum resistance value the full range spans
    ``[r_min, r_min * resistance_ratio]``; the crossbar is re-programmed,
    the input DACs re-calibrated, and the margin evaluated with and
    without wire parasitics.  Every point builds its module from a copy of
    the generator state left after drawing the evaluation inputs, so a
    point's programming realisation does not depend on which points were
    swept before it: a point of a sweep equals that point swept alone.  A
    generator passed as ``seed`` is left just after the evaluation inputs.
    """
    check_positive("resistance_ratio", resistance_ratio)
    parameters = parameters or default_parameters()
    rng = ensure_rng(seed)
    template_codes = np.asarray(template_codes)
    inputs, true_columns = _evaluation_inputs(
        template_codes, num_inputs, parameters.input_bits, rng
    )
    points: List[MarginPoint] = []
    for r_min in r_min_values:
        check_positive("r_min", r_min)
        point_parameters = parameters.with_resistance_range(
            r_min_ohm=r_min, r_max_ohm=r_min * resistance_ratio
        )
        amm = AssociativeMemoryModule.from_templates(
            template_codes,
            parameters=point_parameters,
            include_parasitics=True,
            seed=copy.deepcopy(rng),
        )
        with_parasitics = detection_margins(amm, inputs, true_columns, include_parasitics=True)
        without_parasitics = detection_margins(amm, inputs, true_columns, include_parasitics=False)
        points.append(
            MarginPoint(
                parameter=float(r_min),
                mean_margin=float(np.mean(with_parasitics)),
                min_margin=float(np.min(with_parasitics)),
                mean_margin_ideal=float(np.mean(without_parasitics)),
            )
        )
    return points


def delta_v_sweep(
    template_codes: np.ndarray,
    delta_v_values: Sequence[float],
    parameters: Optional[DesignParameters] = None,
    num_inputs: int = 4,
    seed: RandomState = 7,
) -> List[MarginPoint]:
    """Fig. 9b: detection margin versus the terminal voltage ΔV.

    The hardware stays fixed; only the DTCS supply ΔV changes, so the
    signal currents shrink relative to the parasitic drops as ΔV is
    reduced.  Every point builds its module from a copy of the generator
    state left after drawing the evaluation inputs, so the programmed
    conductances (write noise included), the DAC mismatch and the WTA
    offsets are the same at every ΔV, and the points share one static
    network (one operator build).  A generator passed as ``seed`` is left
    just after the evaluation inputs: the modules' draws come from copies.
    """
    parameters = parameters or default_parameters()
    rng = ensure_rng(seed)
    template_codes = np.asarray(template_codes)
    inputs, true_columns = _evaluation_inputs(
        template_codes, num_inputs, parameters.input_bits, rng
    )
    points: List[MarginPoint] = []
    for delta_v in delta_v_values:
        check_positive("delta_v", delta_v)
        point_parameters = parameters.with_delta_v(delta_v)
        amm = AssociativeMemoryModule.from_templates(
            template_codes,
            parameters=point_parameters,
            include_parasitics=True,
            seed=copy.deepcopy(rng),
        )
        with_parasitics = detection_margins(amm, inputs, true_columns, include_parasitics=True)
        without_parasitics = detection_margins(amm, inputs, true_columns, include_parasitics=False)
        points.append(
            MarginPoint(
                parameter=float(delta_v),
                mean_margin=float(np.mean(with_parasitics)),
                min_margin=float(np.min(with_parasitics)),
                mean_margin_ideal=float(np.mean(without_parasitics)),
            )
        )
    return points


def optimal_resistance_range(points: Sequence[MarginPoint]) -> MarginPoint:
    """Return the sweep point with the largest mean margin (the paper's optimum)."""
    if not points:
        raise ValueError("points must not be empty")
    return max(points, key=lambda point: point.mean_margin)
