"""The batched engine's parasitic path: per-row preconditioned Chebyshev iteration.

Pins the iteration against a dense per-row solve of ``(I + D W)`` and
against the direct sparse MNA solve, each row's interval against the
spectrum of its preconditioned operator, its independence from
batch-mates, and the SPD precondition :meth:`BatchedCrossbarEngine.prepare`
checks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.amm import AssociativeMemoryModule
from repro.core.config import default_parameters
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar import batched
from repro.crossbar.batched import BatchedCrossbarEngine, chebyshev_steps
from repro.crossbar.mna import static_network
from repro.crossbar.parasitics import WireParasitics
from repro.crossbar.programming import TemplateProgrammer
from repro.crossbar.solver import CrossbarSolver
from repro.devices.memristor import MemristorModel


def make_solver(rows, cols, delta_v, r_min, seed):
    rng = np.random.default_rng(seed)
    programmer = TemplateProgrammer(
        memristor=MemristorModel(
            r_min_ohm=r_min, r_max_ohm=32 * r_min, write_accuracy=0.03, seed=seed
        )
    )
    crossbar = ResistiveCrossbar.from_programmed(
        programmer.program(rng.integers(0, 32, size=(rows, cols))),
        parasitics=WireParasitics(cell_pitch_um=0.1),
    )
    return CrossbarSolver(crossbar, delta_v=delta_v, termination_resistance=50.0)


def lambda_max(engine):
    """``λmax(W)`` of a prepared engine."""
    return np.linalg.eigvalsh(engine._w_matrix)[-1]


def drive_for_beta(engine, codes, beta):
    """DAC conductances for ``codes`` (0..31) whose full-code row has
    ``max(d)·λmax(W) = beta``: the drive scale of the unpreconditioned
    system, not the row's Chebyshev interval."""
    engine.prepare()
    return codes / 31.0 * (beta / lambda_max(engine))


def interval_ends(engine, dac):
    """Each row's interval end ``β = λmax(R)·max d/(1 + s·d)``."""
    operators = engine._operators
    return operators.r_max * (dac / (1.0 + operators.shift * dac)).max(axis=1)


def row_steps(engine, dac):
    """Each row's Chebyshev step count under the engine's rule."""
    return chebyshev_steps(interval_ends(engine, dac), engine.CHEBYSHEV_TOL)


def dense_reference(engine, dac):
    """Column and supply currents from one dense ``(I + D W)`` solve per row."""
    w_matrix, delta_v = engine._w_matrix, engine.delta_v
    currents = np.empty((dac.shape[0], engine.crossbar.columns))
    supply = np.empty(dac.shape[0])
    for b, d in enumerate(dac):
        injection = d * delta_v
        base_driven = w_matrix @ injection
        system = np.eye(d.size) + d[:, None] * w_matrix
        corrections = np.linalg.solve(system, d * base_driven)
        v_driven = base_driven - w_matrix @ corrections
        currents[b] = engine._g_term * (engine._z_outputs @ (injection - corrections))
        supply[b] = np.sum(d * (delta_v - v_driven))
    return currents, supply


def dense_current_reference(engine, dac):
    """Column and supply currents from one dense solve per row of
    ``(I + D W) i = ΔV·d`` for the DAC currents ``i``."""
    w_matrix = engine._w_matrix
    currents = np.empty((dac.shape[0], engine.crossbar.columns))
    supply = np.empty(dac.shape[0])
    for b, d in enumerate(dac):
        dac_currents = np.linalg.solve(np.eye(d.size) + d[:, None] * w_matrix, engine.delta_v * d)
        currents[b] = engine._g_term * (engine._z_outputs @ dac_currents)
        supply[b] = dac_currents.sum()
    return currents, supply


def relative_gap(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


class TestChebyshevAccuracy:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(min_value=2, max_value=40),
        cols=st.integers(min_value=2, max_value=8),
        delta_v=st.floats(min_value=2e-3, max_value=60e-3),
        r_min=st.floats(min_value=1e3, max_value=16e3),
        beta=st.floats(min_value=1e-3, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # The lowest Fig. 9 ΔV with inputs overdriven by 10 %: beta > 1.
    @example(rows=32, cols=6, delta_v=2e-3, r_min=1e3, beta=2.9, seed=7)
    @example(rows=40, cols=8, delta_v=30e-3, r_min=16e3, beta=0.56, seed=3)
    def test_matches_dense_and_direct_solves(
        self, rows, cols, delta_v, r_min, beta, seed
    ):
        solver = make_solver(rows, cols, delta_v, r_min, seed)
        engine = solver.batch_engine
        codes = np.random.default_rng(seed + 1).integers(0, 32, size=(6, rows))
        codes[0] = 31  # one full-drive row sits at the top of the interval
        dac = drive_for_beta(engine, codes, beta)
        solution = engine.solve_parasitic_batch(dac)

        dense_currents, dense_supply = dense_reference(engine, dac)
        assert relative_gap(solution.column_currents, dense_currents) <= 1e-14
        assert relative_gap(solution.supply_current, dense_supply) <= 1e-14

        scale = np.max(np.abs(solution.column_currents))
        for b in range(dac.shape[0]):
            direct = solver.solve(dac[b], include_parasitics=True)
            gap = np.max(np.abs(solution.column_currents[b] - direct.column_currents))
            assert gap <= 1e-11 * scale
            assert solution.supply_current[b] == pytest.approx(
                direct.supply_current, rel=1e-11
            )
            assert int(np.argmax(solution.column_currents[b])) == direct.winner()

    def test_calibrated_module_at_two_millivolts_overdriven(self):
        """A calibrated module at ΔV = 2 mV with 10 % input overdrive
        lands above ``max(d)·λmax(W) = 1``, where a Neumann series would
        diverge."""
        parameters = dataclasses.replace(
            default_parameters().with_delta_v(2e-3),
            template_shape=(8, 8),
            num_templates=10,
        )
        rng = np.random.default_rng(5)
        amm = AssociativeMemoryModule.from_templates(
            rng.integers(0, 32, size=(64, 10)), parameters=parameters, seed=5
        )
        engine = amm.solver.batch_engine.prepare()
        dac = 1.1 * amm.input_dacs.conductances(rng.integers(0, 32, size=(8, 64)))
        assert dac.max() * lambda_max(engine) > 1.0
        solution = engine.solve_parasitic_batch(dac)
        dense_currents, dense_supply = dense_reference(engine, dac)
        assert relative_gap(solution.column_currents, dense_currents) <= 1e-14
        assert relative_gap(solution.supply_current, dense_supply) <= 1e-14
        assert np.array_equal(
            solution.column_currents.argmax(axis=1), dense_currents.argmax(axis=1)
        )

    def test_rows_past_the_step_cap_are_solved_densely(self, monkeypatch):
        """No real network reaches the step cap (``β < λmax(R)/s``), so the
        cap is lowered on the instance to the quiet rows' step count."""
        solver = make_solver(24, 5, 30e-3, 1e3, seed=2)
        engine = solver.batch_engine
        codes = np.random.default_rng(9).integers(1, 32, size=(4, 24))
        dac = drive_for_beta(engine, codes, 0.1)
        dac[1] = drive_for_beta(engine, codes[1:2], 5e3)[0]
        steps = row_steps(engine, dac)
        monkeypatch.setattr(engine, "MAX_CHEBYSHEV_STEPS", int(steps[[0, 2, 3]].max()))
        assert steps[1] > engine.MAX_CHEBYSHEV_STEPS
        solution = engine.solve_parasitic_batch(dac)
        dense_currents, _ = dense_reference(engine, dac)
        # kappa ~ 5e3 for the dense row: rounding is amplified to ~1e-13.
        assert relative_gap(solution.column_currents, dense_currents) <= 1e-11
        # The dense row does not disturb its batch-mates.
        alone = engine.solve_parasitic_batch(np.delete(dac, 1, axis=0))
        assert relative_gap(alone.column_currents, solution.column_currents[[0, 2, 3]]) <= 1e-15

    def test_undriven_rows_give_zero_current(self):
        engine = make_solver(12, 4, 30e-3, 1e3, seed=1).batch_engine
        solution = engine.solve_parasitic_batch(np.zeros((3, 12)))
        assert np.all(solution.column_currents == 0.0)
        assert np.all(solution.supply_current == 0.0)


def random_drive(rows, cols, r_min, drive, seed):
    """A prepared engine of a random network and four rows of codes 1..31
    driven to ``max(d)·λmax(W) = drive`` (the first at full code)."""
    engine = make_solver(rows, cols, 30e-3, r_min, seed).batch_engine
    codes = np.random.default_rng(seed + 1).integers(1, 32, size=(4, rows))
    codes[0] = 31
    return engine, drive_for_beta(engine, codes, drive)


NETWORKS = dict(
    rows=st.integers(min_value=1, max_value=48),
    cols=st.integers(min_value=1, max_value=8),
    r_min=st.floats(min_value=200.0, max_value=16e3),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestPreconditionedInterval:
    @settings(max_examples=30, deadline=None)
    @given(drive=st.floats(min_value=1e-3, max_value=1e3), **NETWORKS)
    @example(rows=1, cols=1, r_min=200.0, drive=1e3, seed=0)
    def test_interval_bounds_the_preconditioned_spectrum(self, rows, cols, r_min, drive, seed):
        """Each row's interval ``[1, 1 + β]`` holds the spectrum of its
        preconditioned operator, similar to ``I + Q^-½ R Q^-½`` with
        ``Q = D⁻¹ + s·I + (λ₁ - s)·u·uᵀ``, whatever the drive."""
        engine, dac = random_drive(rows, cols, r_min, drive, seed)
        operators = engine._operators
        vector = operators.top_vector
        for d, end in zip(dac, interval_ends(engine, dac)):
            q_matrix = np.diag(1.0 / d) + operators.shift * np.eye(rows)
            q_matrix += operators.top_gap * np.outer(vector, vector)
            values, vectors = np.linalg.eigh(np.linalg.inv(q_matrix))
            root = (vectors * np.sqrt(values)) @ vectors.T
            spectrum = np.linalg.eigvalsh(root @ operators.r_matrix @ root)
            # Only the check's own rounding (eigh and the products, a few
            # rows·eps of the operator's scale) may reach past the ends.
            slack = rows * np.finfo(float).eps * max(end, values.max() * operators.r_max)
            assert spectrum.max() <= end + slack
            assert spectrum.min() >= -slack

    @settings(max_examples=30, deadline=None)
    @given(drive=st.floats(min_value=1e-3, max_value=4.0), **NETWORKS)
    @example(rows=1, cols=1, r_min=200.0, drive=4.0, seed=0)
    def test_rows_match_the_dense_solve(self, rows, cols, r_min, drive, seed):
        """Drives up to 4 (the lowest Fig. 9 ΔV, overdriven, is 2.9): far
        beyond, the DAC currents ``d·ΔV - c`` cancel (in the reference's
        supply, ``ΔV - v_driven`` does), and the two part by more than
        1e-14."""
        engine, dac = random_drive(rows, cols, r_min, drive, seed)
        solution = engine.solve_parasitic_batch(dac)
        dense_currents, dense_supply = dense_reference(engine, dac)
        assert relative_gap(solution.column_currents, dense_currents) <= 1e-14
        assert relative_gap(solution.supply_current, dense_supply) <= 1e-14


    @settings(max_examples=40, deadline=None)
    @given(drive=st.floats(min_value=1e-3, max_value=1e3), **NETWORKS)
    @example(rows=1, cols=1, r_min=200.0, drive=1e3, seed=0)
    @example(rows=48, cols=8, r_min=200.0, drive=1e3, seed=1)
    def test_rows_match_the_dense_current_solve(self, rows, cols, r_min, drive, seed):
        """The engine iterates on the DAC currents themselves, so nothing
        cancels at large drives: it matches a dense solve for them at any
        drive."""
        engine, dac = random_drive(rows, cols, r_min, drive, seed)
        solution = engine.solve_parasitic_batch(dac)
        dense_currents, dense_supply = dense_current_reference(engine, dac)
        assert relative_gap(solution.column_currents, dense_currents) <= 1e-14
        assert relative_gap(solution.supply_current, dense_supply) <= 1e-14


class TestStepRule:
    @pytest.mark.parametrize("beta", [1e-6, 0.06, 0.56, 2.17, 2.9, 40.0])
    def test_step_count_is_the_least_meeting_the_bound(self, beta):
        tol = BatchedCrossbarEngine.CHEBYSHEV_TOL
        k = int(chebyshev_steps(np.array([beta]), tol)[0])
        root = np.sqrt(1.0 + beta)
        rho = beta / (root + 1.0) ** 2  # = (root - 1) / (root + 1)
        assert 2.0 * root * rho**k <= tol
        assert k == 1 or 2.0 * root * rho ** (k - 1) > tol


class TestRowInvariance:
    def test_row_bits_do_not_depend_on_batch_mates(self):
        """Row 0's answer is bit-identical whether its 15 batch-mates are
        like it or carry 30x its drive (and so take more steps).

        Row 0 sits at ``max(d)·λmax(W) = 1.3``, where its corrections are as large as
        its direct injection, so a batch-wide interval or step count
        would reach its currents at the last-ulp level.
        """
        solver = make_solver(48, 8, 30e-3, 1e3, seed=0)
        engine = solver.batch_engine
        codes = np.random.default_rng(12).integers(0, 32, size=(16, 48))
        codes[:, 0] = 31  # every row reaches full drive: equal intervals
        calm = drive_for_beta(engine, codes, 1.3)
        loud = calm.copy()
        loud[1:] *= 30.0
        loud_steps = row_steps(engine, loud[1:])
        # The batch-mates iterate (no dense rows), for more steps.
        assert row_steps(engine, calm[:1])[0] < loud_steps.min()
        assert loud_steps.max() <= engine.MAX_CHEBYSHEV_STEPS

        first = engine.solve_parasitic_batch(calm)
        second = engine.solve_parasitic_batch(loud)
        assert np.array_equal(first.column_currents[0], second.column_currents[0])
        assert first.supply_current[0] == second.supply_current[0]


class TestPrecondition:
    def test_prepare_refuses_a_non_symmetric_operator(self, monkeypatch):
        engine = make_solver(10, 3, 30e-3, 1e3, seed=0).batch_engine
        network = static_network(engine.crossbar, engine.termination_resistance)
        driven = engine._driven
        one_way = sparse.csc_matrix(
            ([0.5 * network[driven[0], driven[0]]], ([driven[0]], [driven[1]])),
            shape=network.shape,
        )
        monkeypatch.setattr(batched, "static_network", lambda *args: network + one_way)
        with pytest.raises(ValueError, match="not symmetric"):
            engine.prepare()
        assert not engine.prepared

    def test_prepare_refuses_an_indefinite_operator(self, monkeypatch):
        engine = make_solver(10, 3, 30e-3, 1e3, seed=0).batch_engine
        network = static_network(engine.crossbar, engine.termination_resistance)
        monkeypatch.setattr(batched, "static_network", lambda *args: -network)
        with pytest.raises(ValueError, match="not positive definite"):
            engine.prepare()
        assert not engine.prepared

    def test_benchmark_facing_names_survive(self):
        engine = make_solver(10, 3, 30e-3, 1e3, seed=0).batch_engine
        assert engine.prepare(autotune_chunk=False).prepared
        assert engine.chunk_size == 0
