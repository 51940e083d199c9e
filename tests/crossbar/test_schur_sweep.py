"""The engine's Woodbury operators from the block Schur sweep.

``W = (A0⁻¹)[driven, driven]`` and ``Z_out = (A0⁻¹)[outputs, driven]``
are checked against exact rational elimination of the assembled ``A0``
on tiny arrays, and against a SuperLU unit-right-hand-side solve on
random ones.  The sweep's refusals (rows coupled outside the column
bars, a chord inside a row bar, a network that is not a conductance
network, a divergent frontier series, in one matrix or in any member of
a stack) are pinned here too.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.crossbar import batched
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.mna import driven_nodes, output_nodes, row_blocks, static_network
from repro.crossbar.parasitics import WireParasitics
from repro.crossbar.programming import TemplateProgrammer
from repro.crossbar.solver import CrossbarSolver
from repro.devices.memristor import MemristorModel

EPS = float(np.finfo(float).eps)
#: Bound on the operators' gap to a SuperLU reference, in ``eps·g_wire/g_min``.
SUPERLU_FACTOR = 8.0


def make_engine(rows, cols, pitch_um, r_min=1e3, seed=0):
    rng = np.random.default_rng(seed)
    programmer = TemplateProgrammer(
        memristor=MemristorModel(
            r_min_ohm=r_min, r_max_ohm=32 * r_min, write_accuracy=0.03, seed=seed
        )
    )
    crossbar = ResistiveCrossbar.from_programmed(
        programmer.program(rng.integers(0, 32, size=(rows, cols))),
        parasitics=WireParasitics(cell_pitch_um=pitch_um),
    )
    solver = CrossbarSolver(crossbar, delta_v=30e-3, termination_resistance=50.0)
    return solver.batch_engine


def network_of(engine):
    return static_network(engine.crossbar, engine.termination_resistance)


def wire_ratio(engine):
    """``g_wire / g_min``: how far the wires outweigh the weakest memristor."""
    crossbar = engine.crossbar
    return 1.0 / crossbar.parasitics.segment_resistance / crossbar.conductances.min()


def exact_operators(engine):
    """``(W, Z_out)`` of the assembled ``A0`` by Gauss-Jordan elimination in
    :class:`fractions.Fraction`: every float entry is taken exactly, so the
    only rounding is the final conversion of each entry to float."""
    rows, cols = engine.crossbar.rows, engine.crossbar.columns
    dense = network_of(engine).toarray()
    size = dense.shape[0]
    driven = driven_nodes(rows, cols)
    augmented = [
        [Fraction(float(value)) for value in dense[i]]
        + [Fraction(int(i == node)) for node in driven]
        for i in range(size)
    ]
    for k in range(size):
        pivot = next(i for i in range(k, size) if augmented[i][k] != 0)
        augmented[k], augmented[pivot] = augmented[pivot], augmented[k]
        head = augmented[k]
        scale = head[k]
        head[:] = [value / scale for value in head]
        for i in range(size):
            factor = augmented[i][k]
            if i != k and factor != 0:
                augmented[i] = [a - factor * b for a, b in zip(augmented[i], head)]
    inverse_columns = np.array([[float(value) for value in row[size:]] for row in augmented])
    return inverse_columns[driven], inverse_columns[output_nodes(rows, cols)]


def superlu_operators(engine, network):
    """``(W, Z_out)`` of ``network`` from one SuperLU solve per driven unit vector."""
    rows, cols = engine.crossbar.rows, engine.crossbar.columns
    driven = driven_nodes(rows, cols)
    factor = splu(network.tocsc())
    columns = np.empty((network.shape[0], rows))
    for k, node in enumerate(driven):
        unit = np.zeros(network.shape[0])
        unit[node] = 1.0
        columns[:, k] = factor.solve(unit)
    return columns[driven], columns[output_nodes(rows, cols)]


def with_conductance(network, a, b, g=1e-3):
    """``network`` plus a conductance ``g`` between nodes ``a`` and ``b``."""
    extra = sparse.csc_matrix(
        ([g, g, -g, -g], ([a, b, a, b], [a, b, b, a])), shape=network.shape
    )
    return network + extra


def row_node(i, j, cols=4):
    return i * cols + j


def column_node(i, j, rows=3, cols=4):
    return rows * cols + i * cols + j


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


class TestExactOperators:
    #: Bound on the relative error of ``W`` and ``Z_out`` against exact
    #: elimination of the stored ``A0``: ``64·eps``.  The row-sum
    #: preserving sweep never subtracts wire stamps from one another, so
    #: its error does not grow with ``g_wire/g_min``; the largest seen on
    #: 40 arrays of up to 5x4 at 0.1–1 µm pitch was 3.6 eps.  (A sparse
    #: LU of the same matrix is off by up to ~0.2·eps·g_wire/g_min, ~1e-11
    #: at 0.1 µm pitch.)
    ERROR_BOUND = 64 * EPS

    @pytest.mark.parametrize("pitch_um", [0.1, 1.0])
    @pytest.mark.parametrize(
        "rows,cols",
        # Groups left per level of the odd-even reduction: 5-3-2-1, 6-3-2-1,
        # 7-4-2-1 and 4-2-1, odd counts (every eliminated group has two
        # neighbours) and even ones (the last has only its inner one).
        [(1, 1), (1, 3), (3, 1), (2, 3), (3, 2), (5, 2), (6, 3), (7, 1), (4, 4)],
    )
    def test_operators_match_exact_elimination(self, rows, cols, pitch_um):
        engine = make_engine(rows, cols, pitch_um, seed=rows * 10 + cols).prepare()
        w_exact, z_exact = exact_operators(engine)
        assert relative_error(engine._w_matrix, w_exact) <= self.ERROR_BOUND
        assert relative_error(engine._z_outputs, z_exact) <= self.ERROR_BOUND
        assert np.array_equal(engine._w_matrix, engine._w_matrix.T)

    def test_grounds_are_the_stored_row_sums(self):
        """The blocks' ground conductances are the stored rows' exact sums
        (rounded once), which a plain float sum misses by ~eps·g_wire."""
        engine = make_engine(3, 4, 0.1)
        network = network_of(engine)
        _blocks, _couplings, grounds = row_blocks(network, 3, 4)
        dense = network.toarray()
        exact = np.array([float(sum(Fraction(float(v)) for v in row)) for row in dense])
        expected = np.concatenate([exact[:12].reshape(3, 4), exact[12:].reshape(3, 4)], axis=1)
        assert np.all(np.abs(grounds - expected) <= 2 * EPS * np.abs(expected))


class TestAgainstSuperLU:
    @settings(max_examples=40, deadline=None)
    @given(
        # Up to 48 rows: six levels of the odd-even reduction.
        rows=st.integers(min_value=1, max_value=48),
        cols=st.integers(min_value=1, max_value=10),
        pitch_um=st.floats(min_value=0.1, max_value=1.0),
        r_min=st.floats(min_value=1e3, max_value=16e3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_operators_match_unit_rhs_solves(self, rows, cols, pitch_um, r_min, seed):
        engine = make_engine(rows, cols, pitch_um, r_min, seed).prepare()
        w_reference, z_reference = superlu_operators(engine, network_of(engine))
        # SuperLU's own error bounds the gap: up to ~0.2·eps·g_wire/g_min
        # (0.17 of it, the largest over 300 random arrays of up to 24x10).
        bound = SUPERLU_FACTOR * EPS * wire_ratio(engine)
        assert relative_error(engine._w_matrix, w_reference) <= bound
        assert relative_error(engine._z_outputs, z_reference) <= bound


class TestBlockStructure:
    @pytest.mark.parametrize(
        "a,b",
        [
            (row_node(0, 2), row_node(1, 2)),
            (row_node(0, 1), column_node(1, 1)),
            (column_node(0, 3), column_node(2, 3)),
        ],
        ids=["row-bar-to-row-bar", "row-bar-to-column-bar", "column-bars-two-rows-apart"],
    )
    def test_prepare_refuses_rows_coupled_outside_the_column_bars(self, monkeypatch, a, b):
        """A reciprocal extra conductance between crosspoint rows that does not
        join column nodes of neighbouring rows breaks the block-tridiagonal
        order the sweep relies on."""
        engine = make_engine(3, 4, 0.1)
        network = with_conductance(network_of(engine), a, b)
        monkeypatch.setattr(batched, "static_network", lambda *args: network)
        with pytest.raises(ValueError, match="outside the column bars"):
            engine.prepare()
        assert not engine.prepared

    def test_prepare_refuses_a_chord_inside_a_row_bar(self, monkeypatch):
        """The row-bar condensation eliminates each row bar as a chain; a
        conductance between two row-bar nodes that are not neighbours is a
        chord, and the network is refused."""
        engine = make_engine(3, 4, 0.1)
        network = with_conductance(network_of(engine), row_node(1, 0), row_node(1, 2))
        monkeypatch.setattr(batched, "static_network", lambda *args: network)
        with pytest.raises(ValueError, match="chord"):
            engine.prepare()
        assert not engine.prepared

    @pytest.mark.parametrize(
        "a,b",
        [
            (column_node(1, 0), column_node(1, 2)),
            (row_node(1, 1), column_node(1, 3)),
            (row_node(2, 0), column_node(2, 2)),
        ],
        ids=["column-bars-of-one-row", "row-bar-to-another-column", "driven-node-to-a-column"],
    )
    def test_conductances_inside_one_row_block_are_general(self, monkeypatch, a, b):
        """Extra conductances inside one crosspoint row's block, other than a
        chord of its row bar, are eliminated exactly: the operators still
        match SuperLU."""
        engine = make_engine(3, 4, 0.1)
        network = with_conductance(network_of(engine), a, b)
        monkeypatch.setattr(batched, "static_network", lambda *args: network)
        engine.prepare()
        w_reference, z_reference = superlu_operators(engine, network)
        bound = SUPERLU_FACTOR * EPS * wire_ratio(engine)
        assert relative_error(engine._w_matrix, w_reference) <= bound
        assert relative_error(engine._z_outputs, z_reference) <= bound

    def test_column_nodes_of_neighbouring_rows_may_couple_freely(self, monkeypatch):
        """A conductance between any two column nodes of neighbouring rows lies
        inside the blocks' couplings: the operators still match SuperLU."""
        engine = make_engine(3, 4, 0.1)
        network = with_conductance(network_of(engine), column_node(0, 1), column_node(1, 3))
        monkeypatch.setattr(batched, "static_network", lambda *args: network)
        engine.prepare()
        w_reference, z_reference = superlu_operators(engine, network)
        bound = SUPERLU_FACTOR * EPS * wire_ratio(engine)
        assert relative_error(engine._w_matrix, w_reference) <= bound
        assert relative_error(engine._z_outputs, z_reference) <= bound


class TestConductanceNetwork:
    def test_prepare_refuses_a_positive_off_diagonal_entry(self, monkeypatch):
        """A reciprocal but negative conductance between two nodes of one row
        bar is not a conductance network; the row-sum preserving sweep
        needs non-positive off-diagonals."""
        engine = make_engine(3, 4, 0.1)
        network = with_conductance(network_of(engine), row_node(1, 1), row_node(1, 3), g=-1e-3)
        monkeypatch.setattr(batched, "static_network", lambda *args: network)
        with pytest.raises(ValueError, match="not a conductance network"):
            engine.prepare()
        assert not engine.prepared

    def test_frontier_inverse_matches_dense_inverse(self):
        rng = np.random.default_rng(4)
        off = -rng.uniform(0.0, 1.0, size=(6, 6))
        off = _symmetric_off_diagonal(off)
        diagonal = -off.sum(axis=1) + rng.uniform(0.1, 1.0, size=6)
        matrix = off + np.diag(diagonal)
        assert np.allclose(
            batched.frontier_inverse(diagonal, off), np.linalg.inv(matrix), rtol=1e-13, atol=0
        )

    def test_frontier_inverse_refuses_a_divergent_series(self):
        """Without diagonal dominance the Neumann series diverges: the frontier
        is not positive definite, and the sweep says so."""
        off = _symmetric_off_diagonal(-np.ones((4, 4)))
        with pytest.raises(np.linalg.LinAlgError):
            batched.frontier_inverse(np.full(4, 2.0), off)
        with pytest.raises(np.linalg.LinAlgError):
            batched.frontier_inverse(np.array([1.0, 0.0, 1.0, 1.0]), off)


class TestStackedFrontierInverse:
    @staticmethod
    def stack(seed, members=5, size=6):
        rng = np.random.default_rng(seed)
        off = np.stack(
            [
                _symmetric_off_diagonal(-rng.uniform(0.0, 1.0, size=(size, size)))
                for _ in range(members)
            ]
        )
        diagonal = -off.sum(axis=2) + rng.uniform(0.1, 1.0, size=(members, size))
        return diagonal, off

    def test_every_member_matches_its_dense_inverse(self):
        diagonal, off = self.stack(7)
        inverses = batched.frontier_inverse(diagonal, off)
        for member in range(len(diagonal)):
            dense = np.linalg.inv(off[member] + np.diag(diagonal[member]))
            assert np.allclose(inverses[member], dense, rtol=1e-13, atol=0)

    def test_a_stack_inverts_like_its_members_one_by_one(self):
        diagonal, off = self.stack(8)
        inverses = batched.frontier_inverse(diagonal, off)
        for member in range(len(diagonal)):
            alone = batched.frontier_inverse(diagonal[member], off[member])
            assert np.allclose(inverses[member], alone, rtol=1e-14, atol=0)

    def test_refuses_when_one_member_diverges(self):
        """One member without diagonal dominance makes the whole stack fail."""
        diagonal, off = self.stack(9)
        off[2] = _symmetric_off_diagonal(-np.ones(off[2].shape))
        diagonal[2] = 2.0
        with pytest.raises(np.linalg.LinAlgError):
            batched.frontier_inverse(diagonal, off)

    def test_refuses_a_non_positive_diagonal_in_any_member(self):
        diagonal, off = self.stack(10)
        diagonal[-1, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            batched.frontier_inverse(diagonal, off)


def _symmetric_off_diagonal(matrix):
    symmetric = 0.5 * (matrix + matrix.T)
    np.fill_diagonal(symmetric, 0.0)
    return symmetric
