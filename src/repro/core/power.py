"""Power model of the spin-CMOS associative memory (Fig. 13a, Table 1).

The paper identifies two power components for the proposed design:

* **static power** — the current-mode evaluation current of the RCM flowing
  across the small terminal voltage ΔV (plus the share sunk by the SAR
  DACs, which crosses 2ΔV).  Because every current in the design is scaled
  to the DWN threshold (the WTA LSB), the static power is proportional to
  the threshold and to ``2**resolution`` — this is the falling curve of
  Fig. 13a;
* **dynamic power** — the switched capacitance of the per-column sense
  latch, SAR register, DAC input gates and the shared winner-tracking
  logic, clocked ``resolution`` times per input period.  This component is
  essentially independent of the DWN threshold and dominates once the
  threshold is scaled down (the flat curve of Fig. 13a).

The model is analytic, parameterised by the 45 nm technology constants and
a small number of architectural activity factors documented below; it can
also re-compute the dynamic energy from the *measured* switching-event
counters that :class:`~repro.core.wta.SpinCmosWta` reports, which is how
the system benchmark cross-checks the analytic estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import DesignParameters, default_parameters
from repro.core.wta import EVENT_KEYS
from repro.devices.latch import DynamicCmosLatch
from repro.devices.transistor import TechnologyParameters
from repro.utils.validation import check_in_range, check_positive

#: Average column current as a fraction of the WTA full scale during an
#: evaluation (typical degree-of-match values sit below mid-scale).
DEFAULT_COLUMN_UTILIZATION = 0.40
#: Extra RCM supply current flowing into the dummy (row-equalising) cells,
#: as a fraction of the column current.
DEFAULT_DUMMY_OVERHEAD = 0.15
#: Average SAR-DAC sink current as a fraction of the WTA full scale over a
#: conversion (the binary search dwells near the input value).
DEFAULT_SAR_UTILIZATION = 0.40
#: Equivalent number of minimum-inverter transitions of the per-column
#: digital logic (SAR register update, DAC drivers, tracking AND/flop) in
#: one conversion cycle, including activity factors.
DEFAULT_GATE_EQUIVALENTS_PER_COLUMN_CYCLE = 4.0
#: Capacitance of the shared detection line spanning all columns (F).
DEFAULT_DETECTION_LINE_CAPACITANCE = 4.0e-15
#: Switched capacitance of one sense-latch operation (F).  Smaller than the
#: stand-alone latch default because the power-critical layout minimises the
#: internal node loading.
DEFAULT_LATCH_CAPACITANCE = 1.0e-15


@dataclass(frozen=True, init=False)
class PowerBreakdown:
    """Static/dynamic power decomposition of one design point.

    Attributes
    ----------
    static_rcm:
        Static power (W) of the crossbar evaluation currents across ΔV.
    static_sar_dac:
        Additional static power (W) of the SAR-DAC current path (which
        crosses 2ΔV rather than ΔV).
    dynamic:
        Dynamic switching power (W) of latches, registers and tracking
        logic at the input data rate.
    frequency:
        Input data rate (Hz) the figures refer to.
    """

    static_rcm: float
    static_sar_dac: float
    dynamic: float
    frequency: float

    def __init__(
        self, static_rcm: float, static_sar_dac: float, dynamic: float, frequency: float
    ) -> None:
        # Stored straight into the instance dict, where the frozen
        # dataclass's own __init__ calls object.__setattr__ per field: a
        # breakdown is built for every costed row.
        fields = self.__dict__
        fields["static_rcm"] = static_rcm
        fields["static_sar_dac"] = static_sar_dac
        fields["dynamic"] = dynamic
        fields["frequency"] = frequency

    @property
    def static_total(self) -> float:
        """Total static power (W)."""
        return self.static_rcm + self.static_sar_dac

    @property
    def total(self) -> float:
        """Total power (W)."""
        return self.static_total + self.dynamic

    @property
    def energy_per_recognition(self) -> float:
        """Energy (J) per input evaluation."""
        return self.total / self.frequency

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form used by the report formatters."""
        return {
            "static_rcm": self.static_rcm,
            "static_sar_dac": self.static_sar_dac,
            "static_total": self.static_total,
            "dynamic": self.dynamic,
            "total": self.total,
            "energy_per_recognition": self.energy_per_recognition,
        }


class SpinAmmPowerModel:
    """Analytic power model of the proposed spin-CMOS AMM.

    Parameters
    ----------
    parameters:
        Design parameters (threshold, resolution, ΔV, clock, array size).
    technology:
        45 nm constants used for the digital switching energies.
    column_utilization, dummy_overhead, sar_utilization:
        Architectural activity factors (see module constants).
    gate_equivalents_per_column_cycle:
        Digital switching activity per column per conversion cycle,
        expressed in minimum-inverter transitions.
    latch_capacitance:
        Switched capacitance per sense operation (F).
    detection_line_capacitance:
        Capacitance of the shared detection line (F).
    """

    def __init__(
        self,
        parameters: Optional[DesignParameters] = None,
        technology: Optional[TechnologyParameters] = None,
        column_utilization: float = DEFAULT_COLUMN_UTILIZATION,
        dummy_overhead: float = DEFAULT_DUMMY_OVERHEAD,
        sar_utilization: float = DEFAULT_SAR_UTILIZATION,
        gate_equivalents_per_column_cycle: float = DEFAULT_GATE_EQUIVALENTS_PER_COLUMN_CYCLE,
        latch_capacitance: float = DEFAULT_LATCH_CAPACITANCE,
        detection_line_capacitance: float = DEFAULT_DETECTION_LINE_CAPACITANCE,
    ) -> None:
        self.parameters = parameters or default_parameters()
        self.technology = technology or TechnologyParameters()
        check_in_range("column_utilization", column_utilization, 0.0, 1.0)
        check_in_range("dummy_overhead", dummy_overhead, 0.0, 1.0)
        check_in_range("sar_utilization", sar_utilization, 0.0, 1.0)
        check_positive("gate_equivalents_per_column_cycle", gate_equivalents_per_column_cycle)
        check_positive("latch_capacitance", latch_capacitance)
        check_positive("detection_line_capacitance", detection_line_capacitance)
        self.column_utilization = column_utilization
        self.dummy_overhead = dummy_overhead
        self.sar_utilization = sar_utilization
        self.gate_equivalents_per_column_cycle = gate_equivalents_per_column_cycle
        self.latch = DynamicCmosLatch(
            supply_voltage=self.technology.supply_voltage,
            node_capacitance=latch_capacitance,
        )
        self.detection_line_capacitance = detection_line_capacitance
        self._coefficient_cache: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Static components
    # ------------------------------------------------------------------ #
    def rcm_static_power(
        self,
        threshold_current: Optional[float] = None,
        resolution_bits: Optional[int] = None,
    ) -> float:
        """Static power (W) of the RCM evaluation currents across ΔV."""
        parameters = self.parameters
        threshold = threshold_current or parameters.dwn_threshold_current
        bits = resolution_bits or parameters.wta_resolution_bits
        full_scale = (2**bits) * threshold
        column_current = self.column_utilization * full_scale
        total_current = (
            parameters.num_templates * column_current * (1.0 + self.dummy_overhead)
        )
        return total_current * parameters.delta_v

    def sar_dac_static_power(
        self,
        threshold_current: Optional[float] = None,
        resolution_bits: Optional[int] = None,
    ) -> float:
        """Extra static power (W) of the SAR-DAC sink path (2ΔV drop)."""
        parameters = self.parameters
        threshold = threshold_current or parameters.dwn_threshold_current
        bits = resolution_bits or parameters.wta_resolution_bits
        full_scale = (2**bits) * threshold
        sink_current = parameters.num_templates * self.sar_utilization * full_scale
        return sink_current * parameters.delta_v

    # ------------------------------------------------------------------ #
    # Dynamic components
    # ------------------------------------------------------------------ #
    def dynamic_energy_per_conversion(
        self, resolution_bits: Optional[int] = None
    ) -> float:
        """Switched energy (J) of one full WTA conversion (all columns)."""
        parameters = self.parameters
        bits = resolution_bits or parameters.wta_resolution_bits
        columns = parameters.num_templates
        per_column_cycle = (
            self.latch.sense_energy()
            + self.gate_equivalents_per_column_cycle
            * self.technology.inverter_switching_energy()
        )
        column_energy = columns * bits * per_column_cycle
        detection_energy = (
            bits
            * self.detection_line_capacitance
            * self.technology.supply_voltage**2
        )
        return column_energy + detection_energy

    def dynamic_power(self, resolution_bits: Optional[int] = None) -> float:
        """Dynamic power (W) at the design's input data rate."""
        return (
            self.dynamic_energy_per_conversion(resolution_bits)
            * self.parameters.clock_frequency_hz
        )

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def breakdown(
        self,
        threshold_current: Optional[float] = None,
        resolution_bits: Optional[int] = None,
    ) -> PowerBreakdown:
        """Full static/dynamic decomposition for a design point."""
        return PowerBreakdown(
            static_rcm=self.rcm_static_power(threshold_current, resolution_bits),
            static_sar_dac=self.sar_dac_static_power(threshold_current, resolution_bits),
            dynamic=self.dynamic_power(resolution_bits),
            frequency=self.parameters.clock_frequency_hz,
        )

    def total_power(
        self,
        threshold_current: Optional[float] = None,
        resolution_bits: Optional[int] = None,
    ) -> float:
        """Total power (W) for a design point."""
        return self.breakdown(threshold_current, resolution_bits).total

    def energy_per_recognition(
        self,
        threshold_current: Optional[float] = None,
        resolution_bits: Optional[int] = None,
    ) -> float:
        """Energy (J) per evaluated input."""
        return self.breakdown(
            threshold_current, resolution_bits
        ).energy_per_recognition

    # ------------------------------------------------------------------ #
    # Measured-activity path
    # ------------------------------------------------------------------ #
    def _event_coefficients(self) -> Tuple[float, float, int, float, float, float]:
        """Per-event energy terms of the measured-activity path.

        ``(sense energy, inverter energy, columns, detection-line
        capacitance, supply voltage squared, SAR-DAC static power)``,
        computed once per distinct set of inputs: a model is costed once
        per recognised row, and re-deriving the technology terms dominated
        that cost.  The inputs are compared on every call, so replacing
        ``technology``, ``parameters``, ``latch``,
        ``detection_line_capacitance`` or ``sar_utilization`` after
        construction still takes effect.
        """
        inputs = (
            self.technology,
            self.parameters,
            self.latch,
            self.detection_line_capacitance,
            self.sar_utilization,
        )
        cached = self._coefficient_cache
        if cached is None or cached[0] != inputs:
            cached = self._coefficient_cache = (
                inputs,
                (
                    self.latch.sense_energy(),
                    self.technology.inverter_switching_energy(),
                    self.parameters.num_templates,
                    self.detection_line_capacitance,
                    self.technology.supply_voltage**2,
                    self.sar_dac_static_power(),
                ),
            )
        return cached[1]

    def power_from_measurement(
        self, static_power: float, events: np.ndarray
    ) -> PowerBreakdown:
        """Combine a measured crossbar static power with measured WTA activity.

        ``events`` is one conversion's counter vector in
        :data:`~repro.core.wta.EVENT_KEYS` order (a result's ``events`` or
        one row of a batch's), so the dynamic power reflects the workload's
        real bit activity rather than the average activity factors.
        """
        if not 0.0 <= static_power < math.inf:
            check_positive("static_power", static_power, allow_zero=True)
        events = np.asarray(events)
        if events.shape != _EVENT_SHAPE:
            raise ValueError(f"events must have shape {_EVENT_SHAPE}, got {events.shape}")
        coefficients = self._event_coefficients()
        frequency = self.parameters.clock_frequency_hz
        return PowerBreakdown(
            static_rcm=static_power,
            static_sar_dac=coefficients[5],
            dynamic=_events_energy(coefficients, events) * frequency,
            frequency=frequency,
        )


#: Shape of one conversion's counter vector.
_EVENT_SHAPE = (len(EVENT_KEYS),)


def _events_energy(
    coefficients: Tuple[float, float, int, float, float, float], events: np.ndarray
) -> float:
    """Dynamic energy (J) of the counter vector ``events`` at the per-event
    ``coefficients`` of :meth:`SpinAmmPowerModel._event_coefficients`.

    The counters are unpacked as Python ints and every product keeps its
    left-to-right operand order (``events * columns * inverter`` is
    ``(events * columns) * inverter``), so the cached coefficients change
    no bit of the result.  DWN switches and line discharges cost nothing
    of their own.
    """
    sense, inverter, columns, detection_capacitance, supply_squared, _ = coefficients
    senses, bit_writes, transitions, _, tracking_writes, _, precharges = events.tolist()
    energy = 0.0
    energy += senses * sense
    energy += bit_writes * 2.0 * inverter
    energy += transitions * inverter
    energy += tracking_writes * columns * inverter
    energy += precharges * detection_capacitance * supply_squared
    return energy
