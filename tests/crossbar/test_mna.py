"""The shared MNA assembler against an independent, hand-stamped network.

:func:`hand_stamped` stamps the crossbar one conductance at a time in
Python loops, with its own node numbering, as the direct solver did before
the vectorised assembler replaced it.  It is the reference both the
assembled matrix and :meth:`CrossbarSolver.solve` are checked against.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.mna import driven_nodes, driven_residual, output_nodes, static_network
from repro.crossbar.parasitics import WireParasitics
from repro.crossbar.programming import TemplateProgrammer
from repro.crossbar.solver import CrossbarSolver
from repro.devices.memristor import MemristorModel

DELTA_V = 30e-3
TERMINATION = 20.0


def make_crossbar(rows, cols, seed=0, pitch_um=0.5):
    rng = np.random.default_rng(seed)
    programmer = TemplateProgrammer(memristor=MemristorModel(write_accuracy=0.03, seed=seed))
    return ResistiveCrossbar.from_programmed(
        programmer.program(rng.integers(0, 32, size=(rows, cols))),
        parasitics=WireParasitics(cell_pitch_um=pitch_um),
    )


def hand_stamped(crossbar, dac, delta_v, termination_resistance):
    """The driven MNA system ``(matrix, rhs)``, stamped element by element."""
    rows, cols = crossbar.rows, crossbar.columns
    g_wire = 1.0 / crossbar.parasitics.segment_resistance
    matrix = np.zeros((2 * rows * cols, 2 * rows * cols))
    rhs = np.zeros(2 * rows * cols)

    def row_node(i, j):
        return i * cols + j

    def col_node(i, j):
        return rows * cols + i * cols + j

    def stamp(a, b, g):
        """A conductance between nodes a and b (b = None means ground)."""
        matrix[a, a] += g
        if b is not None:
            matrix[b, b] += g
            matrix[a, b] -= g
            matrix[b, a] -= g

    for i in range(rows):
        # DAC source as a conductance to ground plus a Norton injection.
        stamp(row_node(i, 0), None, dac[i])
        rhs[row_node(i, 0)] += dac[i] * delta_v
        stamp(row_node(i, 0), None, crossbar.dummy_conductances[i])
    for i in range(rows):
        for j in range(cols - 1):
            stamp(row_node(i, j), row_node(i, j + 1), g_wire)
    for i in range(rows):
        for j in range(cols):
            stamp(row_node(i, j), col_node(i, j), crossbar.conductances[i, j])
    for j in range(cols):
        for i in range(rows - 1):
            stamp(col_node(i, j), col_node(i + 1, j), g_wire)
    for j in range(cols):
        stamp(col_node(rows - 1, j), None, 1.0 / termination_resistance)
    return matrix, rhs


SHAPES = [(3, 4), (1, 4), (3, 1)]


def drive(rows, seed=1):
    """DAC conductances with every other row (from the second) undriven."""
    dac = np.random.default_rng(seed).uniform(1e-6, 3e-5, rows)
    dac[1::2] = 0.0
    return dac


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_assembled_matrix_matches_hand_stamped(rows, cols):
    crossbar = make_crossbar(rows, cols)
    dac = drive(rows)
    driven = driven_nodes(rows, cols)
    base = static_network(crossbar, TERMINATION)
    assembled = base + sparse.csc_matrix((dac, (driven, driven)), shape=base.shape)
    reference, _rhs = hand_stamped(crossbar, dac, DELTA_V, TERMINATION)
    # Entry for entry; diagonal sums may round in a different order.
    np.testing.assert_allclose(assembled.toarray(), reference, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_solve_matches_hand_stamped(rows, cols):
    crossbar = make_crossbar(rows, cols)
    dac = drive(rows)
    solution = CrossbarSolver(
        crossbar, delta_v=DELTA_V, termination_resistance=TERMINATION
    ).solve(dac)
    matrix, rhs = hand_stamped(crossbar, dac, DELTA_V, TERMINATION)
    voltages = np.linalg.solve(matrix, rhs)
    currents = voltages[output_nodes(rows, cols)] / TERMINATION
    np.testing.assert_allclose(solution.column_currents, currents, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        solution.row_voltages.ravel(), voltages[: rows * cols], rtol=1e-12, atol=0.0
    )
    supply = np.sum(dac * (DELTA_V - voltages[driven_nodes(rows, cols)]))
    assert solution.supply_current == pytest.approx(supply, rel=1e-12)


def test_driven_residual_matches_exact_arithmetic():
    # 0.1 µm pitch: ~10 S wire stamps against ~1e-5 S memristors and drive.
    crossbar = make_crossbar(3, 4, pitch_um=0.1)
    dac = drive(3)
    driven = driven_nodes(3, 4)
    base = static_network(crossbar, TERMINATION)
    rhs = np.zeros(base.shape[0])
    rhs[driven] = dac * DELTA_V
    voltages = np.random.default_rng(2).uniform(0.0, DELTA_V, base.shape[0])
    exact = [Fraction(float(value)) for value in rhs]
    coo = base.tocoo()
    for i, j, value in zip(coo.row, coo.col, coo.data):
        exact[i] -= Fraction(float(value)) * Fraction(float(voltages[j]))
    for node, d in zip(driven, dac):
        exact[node] -= Fraction(float(d)) * Fraction(float(voltages[node]))
    exact = np.array([float(value) for value in exact])
    residual = driven_residual(base, driven, dac, rhs, voltages)
    # A plain float evaluation is off by ~eps x 10 S x 30 mV here.
    np.testing.assert_allclose(residual, exact, rtol=4e-16, atol=1e-25)
