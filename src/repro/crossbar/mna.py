"""The modified-nodal-analysis (MNA) network of a programmed crossbar.

One node per crosspoint on each horizontal (row) bar, ``i·cols + j``, and
on each in-plane (column) bar, ``rows·cols + i·cols + j``.  The input DACs
drive the first node of every row bar; the spin neurons clamp the last
node of every column bar.

:func:`static_network` assembles ``A0``, everything that does not depend
on the input: dummy cells, wire segments, memristors and the column
terminations.  A drive adds only the DAC conductances on the diagonal of
the driven nodes, so the direct solve
(:meth:`~repro.crossbar.solver.CrossbarSolver.solve`) and the batched
engine's factorisation (:mod:`repro.crossbar.batched`) share this one
assembler.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.crossbar.array import ResistiveCrossbar

#: SuperLU column ordering for ``A0`` and its drives.  The network is
#: symmetric, so minimum degree on the pattern of ``Aᵀ + A`` (that is, of
#: ``A``) gives less fill than the default COLAMD: 362k against 475k
#: L+U nonzeros for the reference 128x40 array.
PERMC_SPEC = "MMD_AT_PLUS_A"


def driven_nodes(rows: int, cols: int) -> np.ndarray:
    """MNA nodes the input DACs drive: ``row_node(i, 0)`` for every row."""
    return np.arange(rows) * cols


def output_nodes(rows: int, cols: int) -> np.ndarray:
    """MNA nodes the spin neurons clamp: ``col_node(rows - 1, j)`` for every column."""
    return rows * cols + (rows - 1) * cols + np.arange(cols)


def static_network(
    crossbar: ResistiveCrossbar, termination_resistance: float
) -> sparse.csc_matrix:
    """Assemble ``A0``: the MNA matrix of the network without DAC sources."""
    rows, cols = crossbar.rows, crossbar.columns
    g_wire = 1.0 / crossbar.parasitics.segment_resistance
    n_nodes = 2 * rows * cols
    entries = []  # (row indices, column indices, values) blocks

    def stamp(a: np.ndarray, b, g: np.ndarray) -> None:
        entries.append((a, a, g))
        if b is not None:
            entries.extend([(b, b, g), (a, b, -g), (b, a, -g)])

    # Dummy memristors terminating the driven row ends at the clamp rail.
    stamp(
        driven_nodes(rows, cols), None, np.asarray(crossbar.dummy_conductances, dtype=float)
    )
    # Row wire segments.
    row_left = (np.arange(rows)[:, None] * cols + np.arange(cols - 1)[None, :]).ravel()
    stamp(row_left, row_left + 1, np.full(rows * (cols - 1), g_wire))
    # Memristors between row and column bars.
    cross = np.arange(rows * cols)
    stamp(cross, rows * cols + cross, crossbar.conductances.ravel())
    # Column wire segments.
    col_upper = (
        rows * cols + (np.arange(rows - 1)[:, None] * cols + np.arange(cols)[None, :]).ravel()
    )
    stamp(col_upper, col_upper + cols, np.full((rows - 1) * cols, g_wire))
    # Column terminations (spin-neuron clamp) at the last row end.
    stamp(output_nodes(rows, cols), None, np.full(cols, 1.0 / termination_resistance))

    index_i, index_j, values = (np.concatenate(part) for part in zip(*entries))
    return sparse.coo_matrix(
        (values, (index_i, index_j)), shape=(n_nodes, n_nodes)
    ).tocsc()
