"""Tests for the associative memory module (Section 4 system)."""

import socket

import numpy as np
import pytest

from repro.analysis.margins import detection_margins
from repro.backends import wire
from repro.backends.base import EngineSpec
from repro.core.amm import AssociativeMemoryModule, InputDacBank
from repro.core.config import DesignParameters
from repro.crossbar import batched, solver


class TestInputDacBank:
    def test_conductance_linear_in_code_without_mismatch(self):
        bank = InputDacBank(rows=4, bits=5, unit_conductance=1e-6)
        codes = np.array([0, 1, 16, 31])
        conductances = bank.conductances(codes)
        assert conductances[0] == pytest.approx(0.0)
        assert conductances[1] == pytest.approx(1e-6)
        assert conductances[2] == pytest.approx(16e-6)
        assert conductances[3] == pytest.approx(31e-6)

    def test_per_row_mismatch_differs(self):
        bank = InputDacBank(rows=8, bits=5, unit_conductance=1e-6, mismatch_sigma=0.1, seed=1)
        codes = np.full(8, 31)
        conductances = bank.conductances(codes)
        assert np.std(conductances) > 0

    def test_rescaled_preserves_mismatch_pattern(self):
        bank = InputDacBank(rows=4, bits=5, unit_conductance=1e-6, mismatch_sigma=0.1, seed=2)
        doubled = bank.rescaled(2.0)
        assert np.allclose(doubled.bit_conductances, 2 * bank.bit_conductances)

    def test_code_validation(self):
        bank = InputDacBank(rows=2, bits=5, unit_conductance=1e-6)
        for bad in ([0, 32], [-1, 3], [[0, 1], [2**40, 0]], [[0, 1], [-2**40, 0]]):
            with pytest.raises(ValueError, match="codes must be in"):
                bank.conductances(np.array(bad))
        with pytest.raises(ValueError):
            bank.conductances(np.array([0]))
        with pytest.raises(ValueError):
            InputDacBank.from_bit_conductances(np.ones((2, InputDacBank.MAX_BITS + 1)), 1e-6)

    def test_full_scale_conductance(self):
        bank = InputDacBank(rows=2, bits=5, unit_conductance=1e-6)
        assert bank.full_scale_conductance() == pytest.approx(31e-6)


def masked_sum(bank, codes):
    """The direct code-to-conductance formula the code table must equal."""
    masks = ((codes[:, :, None] >> np.arange(bank.bits)) & 1).astype(float)
    return np.sum(masks * bank.bit_conductances[None, :, :], axis=2)


def wire_round_trip(module):
    """The module a remote or fleet replica rebuilds from its SPEC frame."""
    header, arrays = wire.spec_to_wire(EngineSpec.from_module(module))
    left, right = socket.socketpair()
    with left, right:
        wire.send_frame(left, wire.SPEC, header, arrays)
        _, _, header, arrays = wire.recv_frame(right)
    return wire.spec_from_wire(header, arrays).module


class TestDacCodeTable:
    """Every construction path converts through a table that equals the
    masked-sum formula bit for bit, for all 32 codes on every row."""

    @staticmethod
    def all_code_batches(bank):
        rng = np.random.default_rng(5)
        every_code = np.repeat(np.arange(2**bank.bits)[:, None], bank.rows, axis=1)
        shuffled = np.stack([rng.permutation(every_code[:, 0]) for _ in range(bank.rows)], axis=1)
        return every_code, shuffled

    def assert_table_exact(self, bank):
        for codes in self.all_code_batches(bank):
            expected = masked_sum(bank, codes)
            np.testing.assert_array_equal(bank.conductances(codes), expected)
            for vector, row in zip(codes, expected):
                np.testing.assert_array_equal(bank.conductances(vector), row)

    def test_init_rescaled_and_wire_paths(self):
        rng = np.random.default_rng(8)
        templates = rng.integers(0, 32, size=(16, 4))
        module = AssociativeMemoryModule.from_templates(
            templates, dac_mismatch_sigma=0.05, include_parasitics=False, seed=8
        )
        drawn = InputDacBank(rows=16, bits=5, unit_conductance=1e-6, mismatch_sigma=0.05, seed=3)
        rescaled = drawn.rescaled(1.7)
        replica = wire_round_trip(module).input_dacs
        np.testing.assert_array_equal(
            replica.bit_conductances, module.input_dacs.bit_conductances
        )
        # from_templates calibrates its bank through rescaled().
        for bank in (drawn, rescaled, module.input_dacs, replica):
            mismatch = bank.bit_conductances / bank.bit_conductances[0]
            assert np.ptp(mismatch, axis=0).max() > 0  # rows differ
            self.assert_table_exact(bank)


class TestConstruction:
    def test_from_templates_builds_consistent_module(self, small_amm, small_parameters):
        assert small_amm.crossbar.rows == small_parameters.feature_length
        assert small_amm.crossbar.columns == small_parameters.num_templates
        assert small_amm.wta.columns == small_parameters.num_templates

    def test_calibration_places_peak_near_full_scale(self, small_amm, small_template_codes):
        # Driving with the strongest stored template must produce a peak
        # column current close to (but not exceeding much) the WTA range.
        best_current = 0.0
        for column in range(small_template_codes.shape[1]):
            solution = small_amm.column_solution(small_template_codes[:, column])
            peak = solution.column_currents.max()
            if peak > best_current:
                best_current = peak
        full_scale = small_amm.parameters.wta_full_scale_current
        assert 0.7 * full_scale < best_current < 1.1 * full_scale

    def test_column_label_mapping(self, small_template_codes, small_parameters):
        labels = [10, 20, 30, 40, 50, 60]
        amm = AssociativeMemoryModule.from_templates(
            small_template_codes, parameters=small_parameters,
            column_labels=labels, seed=1,
        )
        result = amm.recognise(small_template_codes[:, 2])
        assert result.winner in labels

    def test_mismatched_label_count_rejected(self, small_template_codes, small_parameters):
        with pytest.raises(ValueError):
            AssociativeMemoryModule.from_templates(
                small_template_codes, parameters=small_parameters,
                column_labels=[1, 2], seed=1,
            )

    def test_template_count_overrides_parameters(self, small_template_codes):
        # Parameters say 40 templates but only 6 columns are provided; the
        # module adapts.
        amm = AssociativeMemoryModule.from_templates(
            small_template_codes, parameters=DesignParameters(template_shape=(8, 4)), seed=1
        )
        assert amm.parameters.num_templates == small_template_codes.shape[1]

    def test_non_2d_templates_rejected(self, small_parameters):
        with pytest.raises(ValueError):
            AssociativeMemoryModule.from_templates(
                np.zeros(10, dtype=int), parameters=small_parameters
            )

    def test_calibration_reaches_its_target_under_the_direct_solve(self, small_amm):
        # The calibration input: the stored pattern with the largest ideal
        # self-correlation, as codes.
        conductances = small_amm.crossbar.conductances
        values = small_amm.parameters.memristor_model().conductance_to_value(conductances)
        best = int(np.argmax(np.einsum("ij,ij->j", values, conductances)))
        codes = np.rint(values[:, best] * small_amm.input_dacs.max_code).astype(np.int64)
        solution = small_amm.solver.solve(
            small_amm.input_dacs.conductances(codes), include_parasitics=True
        )
        target = 0.95 * small_amm.parameters.wta_full_scale_current
        assert solution.column_currents.max() == pytest.approx(target, rel=1e-3)


class TestSetupFactorisesOnce:
    """Calibration, ``prepare()`` and both margin solves share one operator build."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"operator_builds": 0, "splu": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            batched.BatchedCrossbarEngine,
            "_build_woodbury",
            counting("operator_builds", batched.BatchedCrossbarEngine._build_woodbury),
        )
        monkeypatch.setattr(solver, "splu", counting("splu", solver.splu))
        return counts

    @pytest.mark.parametrize("include_parasitics,builds", [(True, 1), (False, 0)])
    def test_build_prepare_and_margins_factorise_once(
        self, counts, small_template_codes, small_parameters, include_parasitics, builds
    ):
        amm = AssociativeMemoryModule.from_templates(
            small_template_codes,
            parameters=small_parameters,
            include_parasitics=include_parasitics,
            seed=3,
        )
        amm.solver.batch_engine.prepare(include_parasitics)
        inputs = small_template_codes.T[:3]
        columns = np.arange(3)
        if include_parasitics:
            detection_margins(amm, inputs, columns, include_parasitics=True)
        detection_margins(amm, inputs, columns, include_parasitics=False)
        assert counts == {"operator_builds": builds, "splu": 0}

    def test_a_second_identical_module_runs_no_schur_sweep(
        self, counts, monkeypatch, small_template_codes, small_parameters
    ):
        """Same templates, parameters and seed give a bit-identical ``A0``: the
        second module adopts the first one's cached operators."""
        sweeps = []
        sweep = batched.port_schur_complement
        monkeypatch.setattr(
            batched, "port_schur_complement", lambda *args: sweeps.append(1) or sweep(*args)
        )

        def build():
            return AssociativeMemoryModule.from_templates(
                small_template_codes, parameters=small_parameters, seed=3
            )

        first = build()
        before = len(sweeps)
        second = build()
        assert before <= 1
        assert len(sweeps) == before
        assert counts["operator_builds"] == 2
        assert second.solver.batch_engine._operators is first.solver.batch_engine._operators


class TestRecognition:
    def test_recognise_own_templates(self, small_amm, small_template_codes):
        # Driving the module with each stored pattern must recall that
        # pattern's column.
        correct = 0
        columns = small_template_codes.shape[1]
        for column in range(columns):
            result = small_amm.recognise(small_template_codes[:, column])
            if result.winner_column == column:
                correct += 1
        assert correct >= columns - 1

    def test_recognition_result_fields(self, small_amm, small_template_codes):
        result = small_amm.recognise(small_template_codes[:, 0])
        assert result.codes.shape == (small_amm.crossbar.columns,)
        assert result.column_currents.shape == (small_amm.crossbar.columns,)
        assert result.static_power > 0
        assert 0 <= result.dom_code < small_amm.wta.levels
        assert isinstance(result.accepted, bool) or result.accepted in (True, False)

    def test_strong_match_is_accepted(self, small_amm, small_template_codes):
        result = small_amm.recognise(small_template_codes[:, 1])
        assert result.accepted

    def test_recognise_ideal_matches_hardware_winner_for_strong_inputs(
        self, small_amm, small_template_codes
    ):
        for column in (0, 3, 5):
            hardware = small_amm.recognise(small_template_codes[:, column])
            ideal = small_amm.recognise_ideal(small_template_codes[:, column])
            assert hardware.winner_column == ideal.winner_column

    def test_input_shape_validation(self, small_amm):
        with pytest.raises(ValueError):
            small_amm.recognise(np.zeros(small_amm.crossbar.rows + 1, dtype=int))

    def test_input_variation_perturbs_currents(self, small_template_codes, small_parameters):
        amm = AssociativeMemoryModule.from_templates(
            small_template_codes, parameters=small_parameters,
            input_variation=0.05, seed=3,
        )
        codes = small_template_codes[:, 0]
        currents_a = amm.column_solution(codes).column_currents
        currents_b = amm.column_solution(codes).column_currents
        assert not np.allclose(currents_a, currents_b)

    def test_without_parasitics_gives_larger_currents(self, small_template_codes, small_parameters):
        amm = AssociativeMemoryModule.from_templates(
            small_template_codes, parameters=small_parameters,
            include_parasitics=True, seed=4,
        )
        codes = small_template_codes[:, 0]
        with_par = amm.column_solution(codes).column_currents.sum()
        amm.include_parasitics = False
        without_par = amm.column_solution(codes).column_currents.sum()
        assert without_par > with_par


class TestEvaluate:
    def test_evaluate_reports_statistics(self, small_amm, small_template_codes):
        labels = np.arange(small_template_codes.shape[1])
        stats = small_amm.evaluate(small_template_codes.T, labels)
        assert 0.8 <= stats["accuracy"] <= 1.0
        assert 0.0 <= stats["tie_rate"] <= 1.0
        assert stats["mean_static_power"] > 0

    def test_evaluate_validates_shapes(self, small_amm):
        with pytest.raises(ValueError):
            small_amm.evaluate(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            small_amm.evaluate(np.zeros(5), np.zeros(5))

    def test_dom_threshold_code_from_fraction(self, small_amm):
        expected = int(round(small_amm.parameters.dom_threshold_fraction * (small_amm.wta.levels - 1)))
        assert small_amm.dom_threshold_code == expected
