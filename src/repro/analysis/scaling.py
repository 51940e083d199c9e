"""Array-size scaling studies (extended analysis).

The paper argues that the spin-CMOS scheme is "easily scalable with number
of input as well as required bit precision" because the winner tracking is
fully digital and the analog path is a single current comparison per
column.  This module quantifies that claim along the two array dimensions:

* :func:`template_count_sweep` — growing the number of stored patterns
  (crossbar columns): the proposed design's power grows linearly with the
  column count (one DWN + SAR per column) while the MS-CMOS binary tree
  adds both input cells and internal nodes, and its signal path deepens,
  tightening the per-stage mismatch budget;
* :func:`feature_length_sweep` — growing the pattern dimensionality
  (crossbar rows): the RCM static current is unchanged at a fixed WTA full
  scale (the dot product is re-normalised through the DAC calibration),
  but the wire parasitics per column grow, eroding the detection margin.

Both sweeps return plain dataclass records so the benchmarks and examples
can tabulate them without re-deriving anything.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cmos.wta_bt import BinaryTreeWta
from repro.core.amm import AssociativeMemoryModule
from repro.core.config import DesignParameters, default_parameters
from repro.core.power import SpinAmmPowerModel
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class TemplateCountPoint:
    """One point of the template-count scaling sweep.

    Attributes
    ----------
    templates:
        Number of stored patterns (crossbar columns).
    spin_power:
        Total power (W) of the proposed design.
    mscmos_power:
        Total power (W) of the binary-tree MS-CMOS WTA baseline.
    spin_energy:
        Energy (J) per recognition of the proposed design.
    power_ratio:
        MS-CMOS / proposed power ratio.
    """

    templates: int
    spin_power: float
    mscmos_power: float
    spin_energy: float
    power_ratio: float


@dataclass(frozen=True)
class FeatureLengthPoint:
    """One point of the feature-length scaling sweep.

    Attributes
    ----------
    features:
        Pattern dimensionality (crossbar rows).
    mean_margin:
        Mean true-class detection margin over the evaluation inputs.
    static_power:
        Measured static power (W) of one evaluation.
    """

    features: int
    mean_margin: float
    static_power: float


def template_count_sweep(
    template_counts: Sequence[int],
    parameters: Optional[DesignParameters] = None,
    sigma_vt: float = 5.0e-3,
) -> List[TemplateCountPoint]:
    """Analytic power scaling with the number of stored templates."""
    parameters = parameters or default_parameters()
    points: List[TemplateCountPoint] = []
    for count in template_counts:
        check_integer("template count", count, minimum=2)
        point_parameters = dataclasses.replace(parameters, num_templates=count)
        spin = SpinAmmPowerModel(point_parameters)
        mscmos = BinaryTreeWta(
            inputs=count,
            resolution_bits=parameters.wta_resolution_bits,
            sigma_vt=sigma_vt,
        )
        spin_power = spin.total_power()
        mscmos_power = mscmos.total_power()
        points.append(
            TemplateCountPoint(
                templates=count,
                spin_power=spin_power,
                mscmos_power=mscmos_power,
                spin_energy=spin.energy_per_recognition(),
                power_ratio=mscmos_power / spin_power,
            )
        )
    return points


def feature_length_sweep(
    feature_lengths: Sequence[int],
    templates: int = 10,
    parameters: Optional[DesignParameters] = None,
    seed: RandomState = 11,
) -> List[FeatureLengthPoint]:
    """Measured margin/power scaling with the pattern dimensionality.

    For each feature length a random (equal-energy) template set is
    programmed, the module is calibrated, and the stored patterns are used
    as evaluation inputs.
    """
    parameters = parameters or default_parameters()
    check_integer("templates", templates, minimum=2)
    rng = ensure_rng(seed)
    points: List[FeatureLengthPoint] = []
    max_code = 2**parameters.template_bits - 1
    for features in feature_lengths:
        check_integer("feature length", features, minimum=4)
        point_parameters = dataclasses.replace(
            parameters,
            template_shape=(features, 1),
            num_templates=templates,
        )
        base = np.linspace(0, max_code, features).round().astype(np.int64)
        matrix = np.stack([rng.permutation(base) for _ in range(templates)], axis=1)
        amm = AssociativeMemoryModule.from_templates(
            matrix, parameters=point_parameters, seed=rng
        )
        # Every stored pattern in one pass through the engine calibration
        # factorised; the recorded static power is the last pattern's.
        solution = amm.column_solution_batch(matrix.T)
        currents = solution.column_currents
        diagonal = np.arange(templates)
        own = currents[diagonal, diagonal]
        others = currents.copy()
        others[diagonal, diagonal] = -np.inf
        margins = (own - others.max(axis=1)) / np.maximum(own, 1e-30)
        static_power = solution.static_power[-1]
        points.append(
            FeatureLengthPoint(
                features=int(features),
                mean_margin=float(np.mean(margins)),
                static_power=float(static_power),
            )
        )
    return points
