"""DC solvers for the resistive crossbar network.

The paper's design parameters (memristor resistance range, ΔV, image
compression factor) were "determined based on the simulation of RCM model,
in order to ensure resolvable detection margin" — i.e. on a SPICE DC solve
of the crossbar including wire parasitics.  This module provides the same
capability in Python:

* :meth:`CrossbarSolver.solve_ideal` — the analytic solution with
  zero-resistance wires (equivalent to the expressions of Section 4-A);
* :meth:`CrossbarSolver.solve` — a full modified-nodal-analysis (MNA)
  solution of the resistive network with distributed wire segments, DAC
  source conductances, dummy cells and the finite input resistance of the
  spin neurons clamping the column outputs.

The MNA network has one node per crosspoint on each horizontal (row) bar
and each in-plane (column) bar — ``2 · rows · columns`` unknowns.  Its
input-independent part ``A0`` comes from the vectorised assembler
:func:`~repro.crossbar.mna.static_network`, shared with the batched
engine; :meth:`CrossbarSolver.solve` adds the DAC conductances on the
driven nodes and their Norton injections and solves the system with a
sparse LU and one refinement step, whose residual
(:func:`~repro.crossbar.mna.driven_residual`) keeps the DAC conductances
out of the rounded driven diagonal; the unrefined LU is off by up to
~1e-11 relative at 0.1 µm pitch, the refined solve by ~1e-15.  For the
reference 128x40 array that is a 10 240-node system; one direct solve
takes ~42 ms, ~8 ms of it the refinement (2-core x86-64 host, scipy 1.17
SuperLU).

The direct solve is the independent reference for the batched engine,
which shares only the assembler: the engine builds its Woodbury
operators by a block Schur sweep over the crosspoint rows (row-bar
chains, then odd–even reduction; numpy's LAPACK, no sparse LU; see
:mod:`repro.crossbar.batched`), so
the two paths share no factorisation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchCrossbarSolution, BatchedCrossbarEngine
from repro.crossbar.mna import PERMC_SPEC, driven_nodes, driven_residual, static_network
from repro.utils.validation import check_positive, check_shape

#: Effective termination resistance used when the column clamp is ideal.
MIN_TERMINATION_RESISTANCE_OHM = 1.0e-3


@dataclass(frozen=True)
class CrossbarSolution:
    """Result of a crossbar DC solve.

    Attributes
    ----------
    column_currents:
        Output current (A) delivered by each column into its termination
        (the spin-neuron input node), shape ``(columns,)``.
    row_voltages:
        Voltage (V, relative to the clamp rail) of every row-bar node,
        shape ``(rows, columns)``.
    column_voltages:
        Voltage of every column-bar node, shape ``(rows, columns)``.
    supply_current:
        Total current (A) drawn from the ΔV supply through the input DACs.
    delta_v:
        Terminal voltage used for the solve (V).
    """

    column_currents: np.ndarray
    row_voltages: np.ndarray
    column_voltages: np.ndarray
    supply_current: float
    delta_v: float

    @property
    def static_power(self) -> float:
        """Static power (W) drawn from the ΔV supply during evaluation."""
        return self.supply_current * self.delta_v

    def winner(self) -> int:
        """Index of the column with the largest output current (ideal detection)."""
        return int(np.argmax(self.column_currents))

    def detection_margin(self) -> float:
        """Relative margin between the best and second-best column currents.

        Defined as ``(I_best - I_second) / I_best``; this is the quantity
        the detection unit must resolve, plotted in Fig. 9.
        """
        if self.column_currents.size < 2:
            return 1.0
        ordered = np.sort(self.column_currents)[::-1]
        best, second = ordered[0], ordered[1]
        if best <= 0:
            return 0.0
        return float((best - second) / best)


class CrossbarSolver:
    """Ideal and parasitic-aware DC evaluation of a programmed crossbar.

    Parameters
    ----------
    crossbar:
        The programmed :class:`~repro.crossbar.array.ResistiveCrossbar`.
    delta_v:
        Terminal voltage of the DTCS supply above the clamp rail (V).
    termination_resistance:
        Input resistance (Ω) of the device clamping each column output —
        the magneto-metallic spin neuron presents a few tens of ohms; use
        0 for an ideal clamp.
    """

    def __init__(
        self,
        crossbar: ResistiveCrossbar,
        delta_v: float = 30.0e-3,
        termination_resistance: float = 50.0,
    ) -> None:
        check_positive("delta_v", delta_v)
        if termination_resistance < 0:
            raise ValueError("termination_resistance must be >= 0")
        self.crossbar = crossbar
        self.delta_v = delta_v
        self.termination_resistance = max(
            termination_resistance, MIN_TERMINATION_RESISTANCE_OHM
        )
        self._batch_engine: Optional[BatchedCrossbarEngine] = None

    # ------------------------------------------------------------------ #
    # Ideal solve
    # ------------------------------------------------------------------ #
    def solve_ideal(self, dac_conductances: np.ndarray) -> CrossbarSolution:
        """Analytic solution with zero wire resistance.

        The row bars float at the current-divider voltage of Section 4-A
        and all column nodes sit exactly at the clamp rail.
        """
        crossbar = self.crossbar
        dac = np.asarray(dac_conductances, dtype=float)
        check_shape("dac_conductances", dac, (crossbar.rows,))
        row_v = crossbar.row_voltages(dac, self.delta_v)
        column_currents = row_v @ crossbar.conductances
        supply_current = float(np.sum(dac * (self.delta_v - row_v)))
        row_voltages = np.repeat(row_v[:, None], crossbar.columns, axis=1)
        column_voltages = np.zeros((crossbar.rows, crossbar.columns))
        return CrossbarSolution(
            column_currents=column_currents,
            row_voltages=row_voltages,
            column_voltages=column_voltages,
            supply_current=supply_current,
            delta_v=self.delta_v,
        )

    # ------------------------------------------------------------------ #
    # Full MNA solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        dac_conductances: np.ndarray,
        include_parasitics: bool = True,
    ) -> CrossbarSolution:
        """Solve the full resistive network.

        Parameters
        ----------
        dac_conductances:
            DAC conductance per row (S), shape ``(rows,)``; zeros are
            allowed (row not driven).
        include_parasitics:
            If False, or if the crossbar's wire resistance is zero, the
            analytic ideal solution is returned instead of assembling the
            MNA system.
        """
        crossbar = self.crossbar
        dac = np.asarray(dac_conductances, dtype=float)
        check_shape("dac_conductances", dac, (crossbar.rows,))
        if np.any(dac < 0):
            raise ValueError("DAC conductances must be non-negative")
        segment_resistance = crossbar.parasitics.segment_resistance
        if not include_parasitics or segment_resistance == 0.0:
            return self.solve_ideal(dac)

        rows, cols = crossbar.rows, crossbar.columns
        driven = driven_nodes(rows, cols)
        base = static_network(crossbar, self.termination_resistance)
        # DAC sources: a conductance from the ΔV supply to each driven row
        # end, entered as a conductance to ground plus a Norton injection.
        drive = sparse.csc_matrix((dac, (driven, driven)), shape=base.shape)
        rhs = np.zeros(base.shape[0])
        rhs[driven] = dac * self.delta_v
        factor = splu(base + drive, permc_spec=PERMC_SPEC)
        voltages = factor.solve(rhs)
        # One refinement step against the unrounded system: the stored
        # driven diagonal rounds the DAC conductance into the ~10 S wire
        # stamps, and the LU loses as much again to them (~1e-11 relative).
        voltages += factor.solve(driven_residual(base, driven, dac, rhs, voltages))

        row_voltages = voltages[: rows * cols].reshape(rows, cols)
        column_voltages = voltages[rows * cols :].reshape(rows, cols)
        column_currents = (1.0 / self.termination_resistance) * column_voltages[rows - 1, :]
        supply_current = float(np.sum(dac * (self.delta_v - row_voltages[:, 0])))
        return CrossbarSolution(
            column_currents=column_currents,
            row_voltages=row_voltages,
            column_voltages=column_voltages,
            supply_current=supply_current,
            delta_v=self.delta_v,
        )

    # ------------------------------------------------------------------ #
    # Batched solves
    # ------------------------------------------------------------------ #
    @property
    def batch_engine(self) -> BatchedCrossbarEngine:
        """The lazily built batched engine bound to this solver's network."""
        if self._batch_engine is None:
            self._batch_engine = BatchedCrossbarEngine(
                self.crossbar,
                delta_v=self.delta_v,
                termination_resistance=self.termination_resistance,
            )
        return self._batch_engine

    def solve_batch(
        self,
        dac_conductances: np.ndarray,
        include_parasitics: bool = True,
    ) -> BatchCrossbarSolution:
        """Solve a whole ``(B, rows)`` batch of DAC-conductance vectors.

        The ideal path reproduces :meth:`solve_ideal` bit-for-bit per
        sample; the parasitic path uses the Woodbury update of the static
        network (see :mod:`repro.crossbar.batched`), which matches
        :meth:`solve` to solver precision at a fraction of the cost.
        """
        return self.batch_engine.solve_batch(
            dac_conductances, include_parasitics=include_parasitics
        )

    # ------------------------------------------------------------------ #
    # Convenience wrappers
    # ------------------------------------------------------------------ #
    def solve_for_codes(
        self,
        input_codes: np.ndarray,
        dac,
        include_parasitics: bool = True,
    ) -> CrossbarSolution:
        """Drive the crossbar from integer input codes through a DTCS DAC.

        Parameters
        ----------
        input_codes:
            Integer pixel codes, shape ``(rows,)``.
        dac:
            A :class:`~repro.devices.dac.DtcsDac` whose per-code conductance
            defines the row drive.
        include_parasitics:
            Forwarded to :meth:`solve`.
        """
        input_codes = np.asarray(input_codes)
        check_shape("input_codes", input_codes, (self.crossbar.rows,))
        dac_conductances = dac.conductance_array(input_codes)
        return self.solve(dac_conductances, include_parasitics=include_parasitics)
