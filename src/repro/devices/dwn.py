"""Domain-wall neuron (DWN): the paper's "spin neuron".

Fig. 6 of the paper shows the device: a short, thin free domain ``d2``
connects two anti-parallel fixed domains ``d1`` (input port) and ``d3``
(grounded).  Current entering through ``d1`` and leaving through ``d3``
writes ``d2`` parallel to ``d1``; current in the opposite direction writes
it parallel to ``d3``.  The device therefore *detects the polarity of the
current at its input node*: it is a current comparator whose two terminals
sit at nearly the same potential (magneto-metallic, ultra-low voltage).

Behavioural contract used by the system design:

* switching threshold ``I_c ≈ 1 µA`` (Table 2), giving a small hysteresis
  around zero input current (Fig. 7a);
* switching time ``≈ 1.5 ns`` at the nominal drive, compatible with a
  100 MHz conversion clock;
* the state of ``d2`` is read through an MTJ by a dynamic CMOS latch
  (:mod:`repro.devices.latch`), producing a digital comparison result;
* thermal fluctuations soften the transfer characteristic for input
  currents near the threshold: the switching probability within a clock
  period follows a thermally-activated law controlled by the barrier
  ``Eb = 20 kT``.

In the associative-memory WTA, the current into the DWN input node is the
*difference* between the RCM column current and the local DTCS-DAC current,
so the neuron directly computes ``sign(I_rcm - I_dac)`` each conversion
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.dwm import DomainWallMagnet
from repro.devices.latch import DynamicCmosLatch
from repro.devices.mtj import MagneticTunnelJunction
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DwnConfig:
    """Static configuration of a domain-wall neuron.

    Parameters
    ----------
    threshold_current:
        Magnitude of input current (A) above which the free domain switches
        deterministically within one evaluation period.  Table 2: 1 µA.
    evaluation_time:
        Duration (s) the input current is applied each cycle; at 100 MHz
        with a two-phase clock this is ≈ 5 ns, comfortably above the 1.5 ns
        switching time.
    barrier_kt:
        Thermal stability factor of the free domain in units of kT.
    stochastic:
        If True, sub-threshold switching is modelled probabilistically
        (thermally assisted); if False the comparator is a hard threshold
        with hysteresis.
    device_resistance:
        Series resistance (ohm) presented by the magneto-metallic device to
        the input node; the paper relies on this being small so that the
        RCM output is effectively clamped to the bias voltage (the input
        domain d1 is a wide metallic contact; only the short free domain
        carries the high-resistivity cross-section).
    """

    threshold_current: float = 1.0e-6
    evaluation_time: float = 5.0e-9
    barrier_kt: float = 20.0
    stochastic: bool = False
    device_resistance: float = 20.0

    def __post_init__(self) -> None:
        check_positive("threshold_current", self.threshold_current)
        check_positive("evaluation_time", self.evaluation_time)
        check_positive("barrier_kt", self.barrier_kt)
        check_positive("device_resistance", self.device_resistance)


class DomainWallNeuron:
    """Current-mode comparator built from a domain-wall free domain.

    The neuron holds a binary magnetic state (``+1`` — free domain parallel
    to the input fixed domain ``d1``; ``-1`` — parallel to the grounded
    domain ``d3``).  :meth:`apply_current` evaluates one clock period of
    drive current and updates the state; :meth:`read` senses the state
    through the MTJ/latch stack and returns a digital value.

    Parameters
    ----------
    config:
        Static device configuration (:class:`DwnConfig`).
    magnet:
        Underlying :class:`~repro.devices.dwm.DomainWallMagnet` providing
        the switching-time physics; if omitted, a default device matching
        Table 2 is built and its critical current is overridden by
        ``config.threshold_current``.
    mtj:
        Read-out junction; defaults to the paper's 5 kΩ / 15 kΩ device.
    latch:
        Sense latch; defaults to an offset-free latch.
    seed:
        Seed or generator for stochastic switching and sensing.
    """

    def __init__(
        self,
        config: Optional[DwnConfig] = None,
        magnet: Optional[DomainWallMagnet] = None,
        mtj: Optional[MagneticTunnelJunction] = None,
        latch: Optional[DynamicCmosLatch] = None,
        initial_state: int = -1,
        seed: RandomState = None,
    ) -> None:
        self.config = config or DwnConfig()
        self.magnet = magnet or DomainWallMagnet(barrier_kt=self.config.barrier_kt)
        self.mtj = mtj or MagneticTunnelJunction()
        self.latch = latch or DynamicCmosLatch()
        if initial_state not in (-1, 1):
            raise ValueError(f"initial_state must be -1 or +1, got {initial_state}")
        self._state = initial_state
        self._rng = ensure_rng(seed)
        self._switch_count = 0

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> int:
        """Current magnetic state: +1 (parallel to d1) or -1 (parallel to d3)."""
        return self._state

    @property
    def switch_count(self) -> int:
        """Number of state flips since construction or the last reset."""
        return self._switch_count

    def reset(self, state: int = -1) -> None:
        """Force the free domain to a known state (the pre-set phase).

        Counts as a switching event when the state actually changes; the
        cumulative :attr:`switch_count` is left monotonic so that callers
        can difference it across operations for energy accounting.
        """
        if state not in (-1, 1):
            raise ValueError(f"state must be -1 or +1, got {state}")
        if state != self._state:
            self._switch_count += 1
        self._state = state

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def switching_probability(self, current: float) -> float:
        """Probability that the applied current flips the state this cycle.

        Above the threshold the flip is deterministic (probability 1 toward
        the driven polarity).  Below threshold, thermal activation gives a
        residual probability ``1 - exp(-t/τ)`` with
        ``τ = τ0 · exp(Δ · (1 - |I|/I_c))`` — the standard spin-torque
        thermally-assisted switching model, which produces the softened
        transfer characteristic of Fig. 7a.
        """
        magnitude = abs(current)
        threshold = self.config.threshold_current
        if magnitude >= threshold:
            return 1.0
        if not self.config.stochastic or magnitude == 0.0:
            return 0.0
        attempt_period = 1.0e-9
        exponent = self.config.barrier_kt * (1.0 - magnitude / threshold)
        tau = attempt_period * np.exp(exponent)
        return float(1.0 - np.exp(-self.config.evaluation_time / tau))

    def apply_current(self, current: float) -> int:
        """Apply ``current`` (A, signed) for one evaluation period.

        Positive current (entering at d1, leaving at d3) drives the state
        toward +1; negative current toward -1.  Returns the new state.
        """
        if current == 0.0:
            return self._state
        target = 1 if current > 0 else -1
        if target == self._state:
            return self._state
        probability = self.switching_probability(current)
        flips = probability >= 1.0 or (
            probability > 0.0 and self._rng.random() < probability
        )
        if flips:
            self._state = target
            self._switch_count += 1
        return self._state

    def compare(self, positive_current: float, negative_current: float) -> int:
        """Compare two currents by applying their difference.

        Returns +1 if the positive input wins (state driven to +1), -1
        otherwise.  This is the operation used in the SAR loop where the
        RCM column current competes against the local DAC current.
        """
        return self.apply_current(positive_current - negative_current)

    def read(self) -> int:
        """Sense the state through the MTJ stack and the dynamic latch.

        Returns the *digital* comparison result (+1/-1) as seen by the CMOS
        periphery; with a non-ideal latch this may occasionally differ from
        the true magnetic state.
        """
        parallel = self._state == 1
        device_resistance = self.mtj.resistance(parallel)
        reference_resistance = self.mtj.reference_resistance()
        decision = self.latch.sense(device_resistance, reference_resistance, self._rng)
        # The latch resolves "device branch conducts more" (lower resistance)
        # as logic 1, which corresponds to the parallel (+1) state.
        return 1 if decision else -1

    def evaluate(self, input_current: float, reference_current: float = 0.0) -> int:
        """One full comparator operation: apply, then read.

        ``input_current`` is the current flowing into d1 (e.g. the RCM
        column output) and ``reference_current`` the current pulled out of
        the same node by the DAC; the device responds to their difference.
        """
        self.apply_current(input_current - reference_current)
        return self.read()

    # ------------------------------------------------------------------ #
    # Characterisation (Fig. 7a)
    # ------------------------------------------------------------------ #
    def transfer_characteristic(
        self, currents: np.ndarray, sweeps: int = 1
    ) -> np.ndarray:
        """Quasi-static transfer characteristic over a current sweep.

        Sweeps the input current through ``currents`` in order (then in
        reverse if ``sweeps`` > 1 to expose the hysteresis loop) and records
        the state after each point.  Returns an array of the same length as
        the concatenated sweep.
        """
        currents = np.asarray(currents, dtype=float)
        if sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        ordering = []
        for index in range(sweeps):
            ordering.append(currents if index % 2 == 0 else currents[::-1])
        trace = []
        for segment in ordering:
            for current in segment:
                self.apply_current(float(current))
                trace.append(self._state)
        return np.asarray(trace, dtype=int)

    def hysteresis_width(self) -> float:
        """Width of the hysteresis window in amperes (2 x threshold current)."""
        return 2.0 * self.config.threshold_current

    # ------------------------------------------------------------------ #
    # Energy bookkeeping
    # ------------------------------------------------------------------ #
    def switching_energy(self) -> float:
        """Intrinsic magnetic switching energy per flip (J).

        Dissipation in the magneto-metallic strip at the threshold current;
        negligibly small compared to the CMOS latch energy, included for
        completeness in the power model.
        """
        return self.magnet.switching_energy(
            max(self.config.threshold_current, 1.01 * self.magnet.critical_current)
        )

    def read_energy(self) -> float:
        """Energy of one latch sense operation (J)."""
        return self.latch.sense_energy()
