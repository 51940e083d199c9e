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
engine's operators (:mod:`repro.crossbar.batched`) share this one
assembler.

:func:`row_blocks` renumbers ``A0`` in crosspoint-row blocks (row bar
``i``, then the column-bar nodes of row ``i``).  In that order ``A0`` is
block-tridiagonal: neighbouring blocks touch only through the
column-wire segments, which is what the engine's Schur sweep relies on.
It returns each row bar as the chain it is plus the few other entries of
each block one by one, the couplings between neighbouring rows, and
every node's row sum (its conductance to ground as stored), summed with
compensation, which the sweep's row-sum preserving elimination needs.
It reads ``A0`` in CSR form; the engine hands it the one CSR copy its
own checks of ``A0`` use.

:func:`driven_residual` evaluates ``b - (A0 + U D Uᵀ) x`` for a drive
``D`` without rounding ``D`` into ``A0``'s diagonal and without losing
the small terms of each row to its wire stamps, which the direct
solve's refinement step needs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.crossbar.array import ResistiveCrossbar

#: SuperLU column ordering for the direct solve of a driven network.  The
#: network is symmetric, so minimum degree on the pattern of ``Aᵀ + A``
#: (that is, of ``A``) gives less fill than the default COLAMD: 362k
#: against 475k L+U nonzeros for the reference 128x40 array.  The batched
#: engine uses no sparse LU (it eliminates ``A0`` in :func:`row_blocks`
#: order).
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


class BarConductances(NamedTuple):
    """Conductances inside the crosspoint rows' blocks, one entry each.

    Entry ``n`` is the conductance ``value[n]`` between local nodes
    ``first[n]`` and ``second[n]`` of crosspoint row ``row[n]``, numbered
    as in :func:`row_blocks`.
    """

    row: np.ndarray
    first: np.ndarray
    second: np.ndarray
    value: np.ndarray


class RowBars(NamedTuple):
    """The off-diagonal part of every crosspoint row's diagonal block.

    ``chain`` (shape ``(rows, cols - 1)``) holds the conductance between
    row-bar nodes ``k`` and ``k + 1``; ``links`` the conductances from
    row-bar nodes to column nodes (``second`` counted from the first
    column node); ``columns`` those between two column nodes of one row,
    stored both ways round (both counted from the first column node).
    """

    chain: np.ndarray
    links: BarConductances
    columns: BarConductances


def row_blocks(
    network: sparse.spmatrix, rows: int, cols: int
) -> tuple[RowBars, np.ndarray, np.ndarray]:
    """``network`` cut into crosspoint-row blocks: ``(bars, couplings, grounds)``.

    Block ``i`` numbers row bar ``i``'s nodes ``0..cols-1`` (its driven
    node first) and the column-bar nodes of row ``i`` ``cols..2·cols-1``.
    ``bars`` holds the off-diagonal part of every block (:class:`RowBars`:
    the row bar as the chain it is, and the few other entries one by one);
    ``couplings`` (shape ``(rows - 1, cols, cols)``) holds the conductances
    ``-network[column nodes of row i, column nodes of row i+1]`` for every
    pair of neighbouring rows (the column-wire segments, for an assembled
    ``A0``); ``grounds`` (shape ``(rows, 2·cols)``) holds every node's row
    sum, its conductance to ground as stored — the dummy cells and
    terminations, plus the rounding of each assembled diagonal — summed
    with compensation so that the wire stamps cancel exactly.  Every
    conductance is the magnitude of an off-diagonal entry.

    ``network`` is read in CSR form (no copy when it is one already).  A
    network with any other coupling between rows (a row bar wired to
    another row, or column bars bridging non-neighbouring rows), or with a
    chord inside one row bar (two row-bar nodes that are not neighbours),
    is refused with a :class:`ValueError`, because the blocks would not
    describe it.
    """
    network = network.tocsr()
    counts = np.diff(network.indptr)
    crosspoints = rows * cols
    # Crosspoint row and local index of every node, gathered per entry (as
    # int32, widened only for the entries kept).
    node_row = np.tile(np.repeat(np.arange(rows, dtype=np.int32), cols), 2)
    node_local = np.tile(np.arange(cols, dtype=np.int32), 2 * rows)
    node_local[crosspoints:] += cols
    row_i, row_j = np.repeat(node_row, counts), node_row[network.indices]
    local_i, local_j = np.repeat(node_local, counts), node_local[network.indices]
    values = network.data
    on_bar_i, on_bar_j = local_i < cols, local_j < cols
    inside = row_i == row_j
    on_columns = ~on_bar_i & ~on_bar_j
    downward = on_columns & (row_j == row_i + 1)
    stored = values != 0.0
    if np.any(stored & ~inside & ~downward & ~(on_columns & (row_i == row_j + 1))):
        raise ValueError(
            "the network couples crosspoint rows outside the column bars; "
            "its row blocks are not block-tridiagonal"
        )
    within_bar = inside & on_bar_i & on_bar_j
    if np.any(stored & within_bar & (np.abs(local_i - local_j) > 1)):
        raise ValueError(
            "a row bar has a chord: its nodes do not form a chain, which the "
            "row-bar condensation needs"
        )

    def entries(mask: np.ndarray, first: int, second: int) -> BarConductances:
        (picked,) = np.nonzero(mask & stored)
        return BarConductances(
            row_i[picked].astype(np.int64),
            local_i[picked] - np.int64(first),
            local_j[picked] - np.int64(second),
            -values[picked],
        )

    (chained,) = np.nonzero(within_bar & (local_j == local_i + 1))
    bars = RowBars(
        chain=np.bincount(
            row_i[chained].astype(np.int64) * (cols - 1) + local_i[chained],
            weights=-values[chained],
            minlength=rows * (cols - 1),
        ).reshape(rows, cols - 1),
        links=entries(inside & on_bar_i & ~on_bar_j, 0, cols),
        columns=entries(inside & on_columns & (local_i != local_j), cols, cols),
    )
    coupled = entries(downward, cols, cols)
    couplings = np.bincount(
        (coupled.row * cols + coupled.first) * cols + coupled.second,
        weights=coupled.value,
        minlength=(rows - 1) * cols * cols,
    ).reshape(rows - 1, cols, cols)
    nodes = 2 * crosspoints
    sums = _compensated_row_sums(
        np.repeat(np.arange(nodes, dtype=np.int32), counts), values, nodes
    )
    grounds = np.concatenate(
        [sums[:crosspoints].reshape(rows, cols), sums[crosspoints:].reshape(rows, cols)], axis=1
    )
    return bars, couplings, grounds


#: Dekker's splitting constant for binary64: ``2^27 + 1``.
_SPLITTER = 2.0**27 + 1.0


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(a·b)`` and ``p + e = a·b`` exactly (Dekker)."""
    product = a * b
    scaled_a, scaled_b = _SPLITTER * a, _SPLITTER * b
    a_high = scaled_a - (scaled_a - a)
    b_high = scaled_b - (scaled_b - b)
    a_low, b_low = a - a_high, b - b_high
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return product, error


def driven_residual(
    network: sparse.spmatrix,
    driven: np.ndarray,
    dac: np.ndarray,
    rhs: np.ndarray,
    voltages: np.ndarray,
) -> np.ndarray:
    """``rhs - (network + U·diag(dac)·Uᵀ) @ voltages``, ``U`` selecting ``driven``.

    Every product is split error-free and each node's terms are summed
    with compensation, so the residual keeps its accuracy where a plain
    float evaluation cancels the ~10 S wire stamps against each other
    (an error of ~1e-11 of the drive at 0.1 µm pitch).  The drive enters
    as its own terms, so it is never rounded into the driven diagonal.
    """
    coo = network.tocoo()
    product, error = _two_product(coo.data, voltages[coo.col])
    drive_product, drive_error = _two_product(dac, voltages[driven])
    size = network.shape[0]
    return _compensated_row_sums(
        np.concatenate([np.arange(size), coo.row, coo.row, driven, driven]),
        np.concatenate([rhs, -product, -error, -drive_product, -drive_error]),
        size,
    )


def _compensated_row_sums(row: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Row sums of a sparse matrix given as ``(row, values)``, by Neumaier's
    compensated summation across each row's entries.

    A node's diagonal is the sum of its wire stamps (up to ~10 S) and its
    memristor and ground conductances (down to ~1e-6 S); a plain float sum
    of the row loses the small terms in the rounding of the large ones.
    """
    if np.any(row[1:] < row[:-1]):
        order = np.argsort(row, kind="stable")
        row, values = row[order], values[order]
    starts = np.searchsorted(row, np.arange(size))
    position = np.arange(row.size) - starts[row]
    padded = np.zeros((size, int(position.max(initial=-1)) + 1))
    padded[row, position] = values
    total = np.zeros(size)
    compensation = np.zeros(size)
    for term in padded.T:
        step = total + term
        compensation += np.where(
            np.abs(total) >= np.abs(term), (total - step) + term, (term - step) + total
        )
        total = step
    return total + compensation
