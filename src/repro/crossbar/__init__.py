"""Resistive crossbar memory (RCM) substrate.

The crossbar is the analog compute fabric of the paper (Fig. 1): template
vectors are stored as memristor conductances along the columns, input
currents are injected on the rows, and each column's output current is the
dot product of the input vector with that column's stored pattern.

Modules
-------

:mod:`repro.crossbar.parasitics`
    Wire resistance/capacitance extraction (1 Ω/µm, 0.4 fF/µm — Table 2).
:mod:`repro.crossbar.programming`
    Mapping of quantised template values onto memristor conductances,
    including dummy-cell insertion to equalise the total row conductance.
:mod:`repro.crossbar.array`
    :class:`~repro.crossbar.array.ResistiveCrossbar` — the programmed
    array with its conductance state.
:mod:`repro.crossbar.mna`
    The one vectorised assembler of the static MNA network, shared by
    the direct and the batched solvers.
:mod:`repro.crossbar.solver`
    Ideal (analytic) and parasitic-aware (modified nodal analysis) DC
    solvers producing the column output currents.
"""

from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchCrossbarSolution, BatchedCrossbarEngine
from repro.crossbar.parasitics import WireParasitics
from repro.crossbar.programming import TemplateProgrammer
from repro.crossbar.solver import CrossbarSolution, CrossbarSolver

__all__ = [
    "ResistiveCrossbar",
    "WireParasitics",
    "TemplateProgrammer",
    "CrossbarSolver",
    "CrossbarSolution",
    "BatchedCrossbarEngine",
    "BatchCrossbarSolution",
]
