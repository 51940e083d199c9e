"""Tests for the detection-margin analyses (Fig. 9)."""

import numpy as np
import pytest

from repro.analysis.margins import (
    conductance_range_sweep,
    delta_v_sweep,
    detection_margins,
    optimal_resistance_range,
)
from repro.core.config import DesignParameters


@pytest.fixture(scope="module")
def margin_parameters():
    """A reduced design (32 features, 5 templates) for fast margin sweeps."""
    return DesignParameters(template_shape=(8, 4), num_templates=5)


@pytest.fixture(scope="module")
def margin_templates(margin_parameters):
    rng = np.random.default_rng(17)
    return rng.integers(
        0, 2**margin_parameters.template_bits,
        size=(margin_parameters.feature_length, margin_parameters.num_templates),
    )


class TestDetectionMargins:
    def test_matches_point_by_point_solution(self, small_amm, small_template_codes):
        """The batched-engine path reproduces the per-sample crossbar solves.

        ``detection_margins`` routes the whole input set through
        ``column_solution_batch``; the margins must agree with solving
        each input through ``column_solution`` to solver precision, on
        both the parasitic and the ideal path.
        """
        inputs = small_template_codes.T
        true_columns = list(range(inputs.shape[0]))
        for include_parasitics in (True, False):
            batched = detection_margins(
                small_amm, inputs, true_columns, include_parasitics=include_parasitics
            )
            for index, (codes, true_column) in enumerate(zip(inputs, true_columns)):
                solution = small_amm.solver.solve(
                    small_amm.input_dacs.conductances(codes),
                    include_parasitics=include_parasitics,
                )
                currents = solution.column_currents
                true_current = currents[true_column]
                others = np.delete(currents, true_column)
                expected = (
                    -1.0
                    if true_current <= 0
                    else (true_current - others.max()) / true_current
                )
                assert batched[index] == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_empty_input_batch(self, small_amm):
        margins = detection_margins(small_amm, np.empty((0, 32), dtype=int), [])
        assert margins.shape == (0,)

    def test_margins_for_self_inputs_positive(self, small_amm, small_template_codes):
        columns = small_template_codes.shape[1]
        margins = detection_margins(
            small_amm,
            small_template_codes.T,
            true_columns=list(range(columns)),
            include_parasitics=True,
        )
        assert margins.shape == (columns,)
        assert np.mean(margins > 0) >= 0.8

    def test_parasitics_flag_restored(self, small_amm, small_template_codes):
        original = small_amm.include_parasitics
        detection_margins(
            small_amm, small_template_codes.T[:2], true_columns=[0, 1],
            include_parasitics=not original,
        )
        assert small_amm.include_parasitics == original


class TestConductanceRangeSweep:
    def test_sweep_produces_margin_points(self, margin_templates, margin_parameters):
        points = conductance_range_sweep(
            margin_templates,
            r_min_values=(200.0, 1000.0, 4000.0),
            parameters=margin_parameters,
            num_inputs=2,
            seed=3,
        )
        assert len(points) == 3
        for point in points:
            assert point.parameter in (200.0, 1000.0, 4000.0)
            assert -1.0 <= point.mean_margin <= 1.0
            assert point.min_margin <= point.mean_margin + 1e-12

    def test_ideal_margin_reported_alongside(self, margin_templates, margin_parameters):
        points = conductance_range_sweep(
            margin_templates, r_min_values=(1000.0,), parameters=margin_parameters,
            num_inputs=2, seed=3,
        )
        assert points[0].mean_margin_ideal >= points[0].mean_margin - 0.05

    def test_point_does_not_depend_on_the_points_before_it(
        self, margin_templates, margin_parameters
    ):
        """Each point programs its module from its own copy of the generator."""
        sweep = conductance_range_sweep(
            margin_templates, r_min_values=(200.0, 1000.0), parameters=margin_parameters,
            num_inputs=2, seed=3,
        )
        (alone,) = conductance_range_sweep(
            margin_templates, r_min_values=(1000.0,), parameters=margin_parameters,
            num_inputs=2, seed=3,
        )
        assert sweep[1] == alone

    def test_invalid_ratio_rejected(self, margin_templates, margin_parameters):
        with pytest.raises(ValueError):
            conductance_range_sweep(
                margin_templates, r_min_values=(1000.0,), resistance_ratio=-1.0,
                parameters=margin_parameters,
            )

    def test_optimal_range_selection(self, margin_templates, margin_parameters):
        points = conductance_range_sweep(
            margin_templates, r_min_values=(200.0, 1000.0), parameters=margin_parameters,
            num_inputs=2, seed=3,
        )
        best = optimal_resistance_range(points)
        assert best.mean_margin == max(point.mean_margin for point in points)

    def test_optimal_range_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_resistance_range([])


class TestDeltaVSweep:
    def test_margin_degrades_at_very_low_delta_v(self, margin_templates, margin_parameters):
        # Fig. 9b: reducing ΔV towards the parasitic-drop scale erodes the
        # detection margin.
        points = delta_v_sweep(
            margin_templates,
            delta_v_values=(30e-3, 2e-3),
            parameters=margin_parameters,
            num_inputs=2,
            seed=5,
        )
        assert len(points) == 2
        nominal, tiny = points
        assert tiny.mean_margin <= nominal.mean_margin + 0.02

    def test_invalid_delta_v_rejected(self, margin_templates, margin_parameters):
        with pytest.raises(ValueError):
            delta_v_sweep(
                margin_templates, delta_v_values=(0.0,), parameters=margin_parameters
            )
