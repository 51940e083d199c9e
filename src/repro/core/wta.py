"""Spin-CMOS winner-take-all (Figs. 10-12 of the paper).

Each crossbar column output is received by a domain-wall neuron whose input
node is clamped at the bias rail.  A per-column DTCS DAC, driven by a
successive-approximation register, pulls a trial current out of the same
node; the neuron therefore resolves ``sign(I_column - I_DAC)`` every
conversion cycle and acts as the SAR comparator.  A fully digital
"winner-tracking" layer runs in parallel with the conversion:

* after the first (MSB) cycle, the tracking registers (TR) mark the columns
  whose MSB resolved to 1;
* in every later cycle, each column's discharge register (DR) is the AND of
  its TR and its freshly resolved bit; if *any* DR is high the shared
  detection line (DL) discharges, the TR write is enabled, and only the
  columns whose bit was 1 remain marked;
* if no DR is high (no marked column had this bit set) the TR contents are
  left unchanged.

At the end of the conversion the surviving TR identifies the column with
the largest degree of match and its SAR register holds the DOM value.

Implementation note: the paper's description seeds the TRs with the MSB
results directly.  If *no* column resolves its MSB to 1, that scheme would
leave every TR low and lose the winner; we instead initialise the TRs to
all-ones and apply the same AND/any-discharge update from the first cycle
onwards, which is identical whenever at least one MSB is 1 (the normal
situation, since the input scale is chosen so the best match exceeds
mid-scale) and remains correct otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.inputs import check_batch
from repro.core.sar import SuccessiveApproximationRegister
from repro.devices.dwn import DomainWallNeuron, DwnConfig
from repro.devices.latch import DynamicCmosLatch
from repro.devices.mtj import MagneticTunnelJunction
from repro.utils.rng import (
    RandomState,
    draw_seeds,
    ensure_rng,
    substream_standard_normal,
)
from repro.utils.validation import check_integer, check_positive

#: Tail start ``r`` of numpy's normal ziggurat (``ziggurat_nor_r``).
_ZIGGURAT_R = 3.6541528853610088

#: Largest magnitude numpy's ``standard_normal`` can return.  Its ziggurat
#: (``random_standard_normal`` in
#: ``numpy/random/src/distributions/distributions.c``) returns either a
#: layer sample, ``|x| < r``, or a tail sample ``r + xx`` with
#: ``xx = -log1p(-u) / r``.  ``u`` comes from ``next_double``, 53 random bits
#: scaled by ``2**-53``, so ``u <= 1 - 2**-53`` and ``xx <= 53 ln 2 / r``.
#: The float value below equals numpy's own float result at that ``u``.
Z_MAX = _ZIGGURAT_R + 53.0 * math.log(2.0) / _ZIGGURAT_R

#: The switching-event counters of one conversion, in the order of the last
#: axis of every ``events`` array: results, the worker wire's ``RESULT`` frame
#: and the energy model index the counters by position in this tuple.
EVENT_KEYS = (
    "latch_senses", "sar_bit_writes", "dac_transitions", "dwn_switches",
    "tracking_writes", "detection_discharges", "detection_precharges",
)


@dataclass(frozen=True)
class BatchWtaResult:
    """Vectorised outcome of a batch of winner-take-all conversions.

    Field names match :class:`WtaResult` with a leading batch axis:
    ``winner``/``dom_code``/``tie`` have shape ``(B,)``, ``codes`` and
    ``survivors`` have shape ``(B, columns)`` and ``events`` is the int64
    counter array of shape ``(B, len(EVENT_KEYS))``, one row per sample
    in :data:`EVENT_KEYS` order.
    """

    winner: np.ndarray
    dom_code: np.ndarray
    codes: np.ndarray
    survivors: np.ndarray
    tie: np.ndarray
    events: np.ndarray

    def __len__(self) -> int:
        return self.codes.shape[0]

    def result(self, index: int) -> "WtaResult":
        """The ``index``-th conversion as a scalar :class:`WtaResult`."""
        return WtaResult(
            winner=int(self.winner[index]),
            dom_code=int(self.dom_code[index]),
            codes=self.codes[index],
            survivors=self.survivors[index],
            tie=bool(self.tie[index]),
            events=self.events[index],
        )


@dataclass(frozen=True)
class WtaResult:
    """Outcome of one winner-take-all conversion.

    Attributes
    ----------
    winner:
        Index of the winning column (lowest index on a tie).
    dom_code:
        Degree-of-match code of the winner (the winner's SAR result).
    codes:
        SAR conversion result of every column.
    survivors:
        Boolean mask of columns whose tracking register remained high.
    tie:
        True when more than one column survived (identical codes at the
        WTA resolution).
    events:
        Counters of the digital/analog activity during the conversion,
        consumed by the power model: an int64 vector in
        :data:`EVENT_KEYS` order (latch senses, SAR register bit writes,
        DAC input transitions, DWN switching events, tracking register
        writes, detection-line discharges and precharges); all zeros for
        the ideal reference, which models no device.
    """

    winner: int
    dom_code: int
    codes: np.ndarray
    survivors: np.ndarray
    tie: bool
    events: np.ndarray

    def accepted(self, dom_threshold_code: int) -> bool:
        """Whether the winner's DOM clears the acceptance threshold.

        The paper discards the winner when the DOM is below a predetermined
        threshold, signalling that the input does not belong to the stored
        data set.
        """
        return self.dom_code >= dom_threshold_code


class SpinCmosWta:
    """SAR-based winner-take-all built from domain-wall neurons.

    Parameters
    ----------
    columns:
        Number of competing inputs (stored templates); 40 in the paper.
    resolution_bits:
        WTA / DOM resolution; 5 bits in the reference design.
    full_scale_current:
        Column current (A) mapped to the top DOM code.  The DAC LSB is
        ``full_scale_current / 2**resolution_bits`` and equals the neuron
        threshold in the reference design.
    dwn_config:
        Domain-wall-neuron configuration (threshold, barrier, stochastic
        switching).
    dac_gain_sigma:
        One-sigma relative gain error of each column's SAR DAC (the
        "single step" in which transistor variation affects the proposed
        WTA); drawn once per column.
    latch, mtj:
        Optional read-stack models shared by all columns.
    reset_neurons:
        If True (default), every neuron is pre-set to the -1 state at the
        start of *each conversion cycle* (a two-phase preset/evaluate
        operation).  A sub-threshold comparison then resolves to "input
        below DAC", so the hysteresis of the DWN becomes a uniform one-LSB
        offset that preserves the ranking between columns.  If False the
        neurons keep their state across cycles and sub-threshold
        comparisons return stale decisions, degrading the effective
        resolution by up to the hysteresis width.
    seed:
        Seed or generator for all stochastic elements: one child seed per
        neuron, then the DAC gains, then the request seeds of
        :meth:`convert_batch`.
    """

    def __init__(
        self,
        columns: int,
        resolution_bits: int = 5,
        full_scale_current: float = 32.0e-6,
        dwn_config: Optional[DwnConfig] = None,
        dac_gain_sigma: float = 0.0,
        latch: Optional[DynamicCmosLatch] = None,
        mtj: Optional[MagneticTunnelJunction] = None,
        reset_neurons: bool = True,
        seed: RandomState = None,
    ) -> None:
        check_integer("columns", columns, minimum=1)
        check_integer("resolution_bits", resolution_bits, minimum=1)
        check_positive("full_scale_current", full_scale_current)
        if dac_gain_sigma < 0 or dac_gain_sigma > 0.5:
            raise ValueError(f"dac_gain_sigma must be in [0, 0.5], got {dac_gain_sigma}")
        self.columns = columns
        self.resolution_bits = resolution_bits
        self.full_scale_current = full_scale_current
        self.dwn_config = dwn_config or DwnConfig()
        self.dac_gain_sigma = dac_gain_sigma
        self.reset_neurons = reset_neurons
        self.latch = latch or DynamicCmosLatch()
        self.mtj = mtj or MagneticTunnelJunction()
        rng = ensure_rng(seed)
        self._rng = rng
        self._neuron_seeds = draw_seeds(rng, columns)
        self._neurons: Optional[List[DomainWallNeuron]] = None
        if dac_gain_sigma > 0.0:
            self._dac_gains = 1.0 + rng.normal(0.0, dac_gain_sigma, size=columns)
        else:
            self._dac_gains = np.ones(columns)

    @property
    def neurons(self) -> List[DomainWallNeuron]:
        """One domain-wall neuron per column, built on first use: only the
        per-neuron loop of stochastic or no-preset conversions reads them."""
        if self._neurons is None:
            self._neurons = [
                DomainWallNeuron(
                    config=self.dwn_config, mtj=self.mtj, latch=self.latch, seed=int(seed)
                )
                for seed in self._neuron_seeds
            ]
        return self._neurons

    @property
    def deterministic(self) -> bool:
        """Stochastic switching off and per-cycle preset on: every
        conversion is then a pure function of ``(currents, seed)``."""
        return not self.dwn_config.stochastic and self.reset_neurons

    # ------------------------------------------------------------------ #
    # DAC behaviour
    # ------------------------------------------------------------------ #
    @property
    def levels(self) -> int:
        """Number of DOM levels (``2**resolution_bits``)."""
        return 2**self.resolution_bits

    @property
    def lsb_current(self) -> float:
        """Ideal DAC LSB current (A); equals the neuron threshold by design."""
        return self.full_scale_current / self.levels

    def dac_current(self, column: int, code: int) -> float:
        """Trial current (A) generated by a column's SAR DAC for ``code``."""
        if code < 0 or code >= self.levels:
            raise ValueError(f"code must be in [0, {self.levels - 1}], got {code}")
        return float(code * self.lsb_current * self._dac_gains[column])

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def convert(self, column_currents: np.ndarray) -> WtaResult:
        """Run the full SAR conversion plus winner tracking: one row of
        :meth:`convert_batch`.

        Parameters
        ----------
        column_currents:
            Degree-of-match currents (A) delivered by the crossbar columns,
            shape ``(columns,)``.
        """
        currents = np.asarray(column_currents, dtype=float)
        if currents.shape != (self.columns,):
            raise ValueError(
                f"column_currents must have shape ({self.columns},), got {currents.shape}"
            )
        return self.convert_batch(currents[None]).result(0)

    def _convert_with_neurons(self, currents: np.ndarray) -> WtaResult:
        """One conversion cycle by cycle through the per-column neuron objects."""
        registers = [
            SuccessiveApproximationRegister(self.resolution_bits)
            for _ in range(self.columns)
        ]
        latch_senses = sar_bit_writes = dac_transitions = 0
        discharges = precharges = 0

        previous_trial = np.zeros(self.columns, dtype=np.int64)
        for column, register in enumerate(registers):
            previous_trial[column] = register.begin()
            sar_bit_writes += 1

        tracking = np.ones(self.columns, dtype=bool)
        switch_baseline = [neuron.switch_count for neuron in self.neurons]

        for cycle in range(self.resolution_bits):
            precharges += 1
            bit_results = np.zeros(self.columns, dtype=bool)
            for column, register in enumerate(registers):
                trial_code = register.trial_code
                dac_current = self.dac_current(column, trial_code)
                neuron = self.neurons[column]
                if self.reset_neurons:
                    neuron.reset(-1)
                neuron.apply_current(float(currents[column]) - dac_current)
                decision = neuron.read()
                latch_senses += 1
                keep = decision > 0
                bit_results[column] = keep
                next_trial = register.resolve_bit(keep)
                toggled_bits = bin(int(previous_trial[column]) ^ int(next_trial)).count("1")
                dac_transitions += toggled_bits
                sar_bit_writes += toggled_bits
                previous_trial[column] = next_trial

            discharge = tracking & bit_results
            if discharge.any():
                discharges += 1
                tracking = discharge

        dwn_switches = sum(
            neuron.switch_count - baseline
            for neuron, baseline in zip(self.neurons, switch_baseline)
        )
        # Each discharge enables one tracking-register write.
        counts = (latch_senses, sar_bit_writes, dac_transitions, dwn_switches)
        events = np.array(counts + (discharges, discharges, precharges), dtype=np.int64)

        codes = np.array([register.code for register in registers], dtype=np.int64)
        survivors = tracking.copy()
        if survivors.any():
            candidate_indices = np.flatnonzero(survivors)
        else:
            candidate_indices = np.arange(self.columns)
        winner = int(candidate_indices[np.argmax(codes[candidate_indices])])
        tie = bool(np.count_nonzero(codes[candidate_indices] == codes[winner]) > 1)
        return WtaResult(
            winner=winner,
            dom_code=int(codes[winner]),
            codes=codes,
            survivors=survivors,
            tie=tie,
            events=events,
        )

    # ------------------------------------------------------------------ #
    # Batched conversion
    # ------------------------------------------------------------------ #
    def convert_batch(self, column_currents: np.ndarray) -> BatchWtaResult:
        """Run the SAR conversion plus winner tracking for a whole batch.

        On the deterministic stack (:attr:`deterministic`) this is
        :meth:`convert_batch_seeded` under one request seed per row drawn
        from the WTA's generator, one after another, so a loop of
        :meth:`convert`, chunks and one batch get the same answers.
        Otherwise each row runs the per-neuron loop, whose neurons carry
        their state and streams from one conversion to the next.

        Parameters
        ----------
        column_currents:
            Degree-of-match currents (A), shape ``(B, columns)``.
        """
        currents, _ = check_batch("column_currents", column_currents, self.columns, dtype=float)
        if self.deterministic:
            return self.convert_batch_seeded(currents, draw_seeds(self._rng, currents.shape[0]))
        results = [self._convert_with_neurons(sample) for sample in currents]
        return BatchWtaResult(
            winner=np.array([r.winner for r in results], dtype=np.int64),
            dom_code=np.array([r.dom_code for r in results], dtype=np.int64),
            codes=np.stack([r.codes for r in results]),
            survivors=np.stack([r.survivors for r in results]),
            tie=np.array([r.tie for r in results], dtype=bool),
            events=np.stack([r.events for r in results]),
        )

    #: Spawn key of the per-request latch-offset substream used by
    #: :meth:`convert_batch_seeded` (the input-variation substream of
    #: :meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`
    #: uses spawn key 0 of the same request seed).
    LATCH_STREAM_KEY = 1

    def convert_batch_seeded(
        self, column_currents: np.ndarray, request_seeds: np.ndarray
    ) -> BatchWtaResult:
        """Batch conversion with per-request latch-offset substreams.

        Serving front ends coalesce independent requests into micro-batches
        whose composition depends on traffic timing, so a request's result
        must not depend on how many conversions this WTA has run before,
        how requests were grouped, or which worker replica converted them.
        Sample ``i``'s latch offsets are therefore drawn from a dedicated
        substream of ``request_seeds[i]`` and no neuron object is read or
        written.  The offsets come from
        :func:`~repro.utils.rng.substream_standard_normal`, bit-identical
        to ``default_rng(SeedSequence(entropy=seed,
        spawn_key=(LATCH_STREAM_KEY,))).normal(0.0, sigma, (columns,
        bits))`` per sample, with the seed hash vectorised over the batch.
        They are drawn only when one of them can flip a sense decision
        (:meth:`_offsets_can_flip`).  On the reference read stack no value
        ``standard_normal`` can return reaches the 5 kΩ read margin, so no
        substream is drawn, and the answers are those the draw would give.
        The switching-event counters assume each request enters with its
        neurons in the ``-1`` preset state, making every field of the
        result a pure function of ``(wta, currents, seed)``.

        Only defined for deterministic comparators (``stochastic`` off)
        pre-set every cycle (``reset_neurons`` on): with stochastic
        switching the outcome is inherently draw-order dependent and
        cannot be made arrival-order invariant.
        """
        currents, seeds = check_batch(
            "column_currents", column_currents, self.columns, request_seeds, dtype=float
        )
        if not self.deterministic:
            raise ValueError(
                "seeded conversion requires deterministic neurons "
                "(stochastic switching off, per-cycle preset on)"
            )
        offsets = None
        if self._offsets_can_flip():
            offsets = substream_standard_normal(
                seeds, self.LATCH_STREAM_KEY, (self.columns, self.resolution_bits)
            )
            offsets *= self.latch.offset_sigma_ohm
        return self._convert_batch_fast(currents, offsets)

    def _offsets_can_flip(self) -> bool:
        """Whether some latch offset can flip a sense decision of this WTA.

        A decision is ``R + offset < r_reference`` with ``offset = sigma * z``
        and ``|z| <= Z_MAX``.  The two comparisons below are the kernel's own
        float operations at ``z = ±Z_MAX``; float rounding is monotone, so
        when they hold every offset leaves a parallel read below the
        reference and an anti-parallel read at or above it.
        """
        bound = Z_MAX * self.latch.offset_sigma_ohm
        reference = self.mtj.reference_resistance()
        return not (
            self.mtj.resistance(True) + bound < reference
            and self.mtj.resistance(False) - bound >= reference
        )

    def _convert_batch_fast(
        self, currents: np.ndarray, offsets: Optional[np.ndarray]
    ) -> BatchWtaResult:
        """Vectorised conversion for deterministic, per-cycle-preset neurons.

        With the neuron pre-set to ``-1`` each cycle and stochastic
        switching off, the comparator decision reduces to
        ``I_column - I_DAC >= I_threshold`` and the only random element is
        the latch offset drawn on every read.  ``offsets[b, c, k]`` is the
        offset of neuron ``c`` at cycle ``k`` of sample ``b``, and the
        conversion runs cycle by cycle (:meth:`_sar_cycles`).  ``None``
        means no offset can flip a decision (:meth:`_offsets_can_flip`):
        every decision is then the comparator's, so each cycle's decision
        is the bit it leaves in the final code.  The codes are those of the
        MSB-first search with the kernel's own comparison, found by
        division (:meth:`_sar_codes`), and everything else comes from the
        codes alone: a neuron is driven high once per set bit, a trial
        toggles the next lower bit on and clears a bit it rejects, and the
        tracking registers keep the columns whose prefix is the largest so
        far, so the detection line discharges once per set bit of the row
        maximum and the survivors are the columns equal to it.  No neuron object
        is read or written: each sample's switching events are counted
        from a fresh ``-1`` preset.
        """
        columns, bits = self.columns, self.resolution_bits
        if offsets is None:
            code = self._sar_codes(currents)
            high_cycles = np.bitwise_count(code).astype(np.int64)
            final_high = (code & 1).astype(bool)
            toggle_counts = (2 * bits - 1) * columns - high_cycles.sum(axis=1)
            # The survivors are the columns at the row maximum: the winner
            # is the first of them.
            dom_code = code.max(axis=1)
            survivors = code == dom_code[:, None]
            discharge_counts = np.bitwise_count(dom_code).astype(np.int64)
            winner = survivors.argmax(axis=1)
            tie = np.count_nonzero(survivors, axis=1) > 1
        else:
            code, survivors, high_cycles, final_high, toggle_counts, discharge_counts = (
                self._sar_cycles(currents, offsets)
            )
            masked = np.where(survivors, code, np.int64(-1))
            winner = masked.argmax(axis=1)
            dom_code = code[np.arange(currents.shape[0]), winner]
            tie = (masked == dom_code[:, None]).sum(axis=1) > 1

        # Switching-event accounting: the per-cycle preset flips the state
        # back to -1 whenever the previous cycle drove it high, and the
        # evaluation flips it high whenever the drive exceeds threshold, so
        # a neuron that enters the sample at -1 switches twice per high
        # cycle except after the last one.
        per_sample_switches = (2 * high_cycles - final_high).sum(axis=1)
        # The counters in EVENT_KEYS order; a detection-line discharge
        # enables one tracking-register write.
        events = np.column_stack(
            (
                np.full_like(toggle_counts, columns * bits),
                columns + toggle_counts,
                toggle_counts,
                per_sample_switches,
                discharge_counts,
                discharge_counts,
                np.full_like(toggle_counts, bits),
            )
        )
        return BatchWtaResult(
            winner=winner,
            dom_code=dom_code,
            codes=code,
            survivors=survivors,
            tie=tie,
            events=events,
        )

    def _sense_high(self, currents: np.ndarray, trial: np.ndarray) -> np.ndarray:
        """Whether each neuron is driven high at SAR trial code ``trial``."""
        dac_currents = (trial * self.lsb_current) * self._dac_gains[None, :]
        return currents - dac_currents >= self.dwn_config.threshold_current

    def _sar_codes(self, currents: np.ndarray) -> np.ndarray:
        """Final SAR codes when every decision is the comparator's own.

        The conversion's ``resolution_bits`` MSB-first trials keep the
        largest code the comparator accepts (0 if it accepts none above
        0).  With positive DAC gains the comparison is monotone in the
        code, so that code is the quotient ``(I - I_th)/(lsb·gain)``
        rounded down and clipped to ``[0, levels - 1]``, once rounding is
        settled: the estimate is within one of it and is moved up or down
        by one with the comparison itself, so every code is the search's
        bit for bit.  Any non-positive gain runs the search.
        """
        levels = self.levels
        step = self.lsb_current * self._dac_gains
        if not step.min() > 0.0:
            code = np.zeros(currents.shape, dtype=np.int64)
            for bit_index in range(self.resolution_bits - 1, -1, -1):
                trial = code | np.int64(1 << bit_index)
                code = np.where(self._sense_high(currents, trial), trial, code)
            return code
        estimate = np.floor((currents - self.dwn_config.threshold_current) / step)
        # fmax sends a NaN quotient to 0, the search's answer for it.
        code = np.fmin(np.fmax(estimate, 0.0), levels - 1).astype(np.int64)
        code += (code < levels - 1) & self._sense_high(currents, code + 1)
        code -= (code > 0) & ~self._sense_high(currents, code)
        return code

    def _sar_cycles(self, currents: np.ndarray, offsets: np.ndarray) -> tuple:
        """The conversion cycle by cycle, each sense through its latch offset.

        Returns ``(codes, survivors, high cycles, final high, toggled
        bits, discharges)``: per column the final code, whether its
        tracking register stayed high, how many cycles drove its neuron
        high and whether the last one did; per sample the SAR trial-code
        bits toggled and the detection-line discharges.
        """
        batch, columns = currents.shape
        bits = self.resolution_bits
        r_parallel = self.mtj.resistance(True)
        r_antiparallel = self.mtj.resistance(False)
        r_reference = self.mtj.reference_resistance()

        # SAR register state, replicated from SuccessiveApproximationRegister.
        code = np.full((batch, columns), 1 << (bits - 1), dtype=np.int64)
        tracking = np.ones((batch, columns), dtype=bool)
        high_cycles = np.zeros((batch, columns), dtype=np.int64)
        toggled_bits = np.zeros((batch, columns), dtype=np.int64)
        discharge_counts = np.zeros(batch, dtype=np.int64)

        for cycle in range(bits):
            bit_index = bits - 1 - cycle
            high = self._sense_high(currents, code)
            high_cycles += high
            device_resistance = np.where(high, r_parallel, r_antiparallel)
            keep = (device_resistance + offsets[:, :, cycle]) < r_reference
            next_code = np.where(keep, code, code & ~np.int64(1 << bit_index))
            if bit_index - 1 >= 0:
                next_code = next_code | np.int64(1 << (bit_index - 1))
            toggled_bits += np.bitwise_count(code ^ next_code)
            code = next_code
            discharge = tracking & keep
            fired = discharge.any(axis=1)
            discharge_counts += fired
            tracking = np.where(fired[:, None], discharge, tracking)
        return code, tracking, high_cycles, high, toggled_bits.sum(axis=1), discharge_counts

    # ------------------------------------------------------------------ #
    # Reference behaviour
    # ------------------------------------------------------------------ #
    @staticmethod
    def ideal(
        column_currents: np.ndarray,
        resolution_bits: int,
        full_scale_current: float,
    ) -> WtaResult:
        """Ideal winner-take-all at the given resolution (no device effects).

        Quantises the column currents with an ideal ADC of the same
        resolution and full scale, then picks the largest code (lowest
        index on ties).  Used as the reference in the accuracy analyses of
        Fig. 3b and in unit tests of the hardware WTA.  One row of
        :meth:`ideal_batch`.
        """
        currents = np.asarray(column_currents, dtype=float)
        return SpinCmosWta.ideal_batch(
            currents[None], resolution_bits, full_scale_current
        ).result(0)

    @staticmethod
    def ideal_batch(
        column_currents: np.ndarray,
        resolution_bits: int,
        full_scale_current: float,
    ) -> BatchWtaResult:
        """:meth:`ideal` over a ``(B, columns)`` current batch.

        All operations are element-wise or per-row, so a sample's codes,
        winner and tie flag do not depend on the rest of the batch.
        """
        check_integer("resolution_bits", resolution_bits, minimum=1)
        check_positive("full_scale_current", full_scale_current)
        currents = np.asarray(column_currents, dtype=float)
        if currents.ndim != 2:
            raise ValueError("column_currents must be 2-D (B x columns)")
        levels = 2**resolution_bits
        lsb = full_scale_current / levels
        codes = np.clip(np.floor(currents / lsb), 0, levels - 1).astype(np.int64)
        winner = codes.argmax(axis=1).astype(np.int64)
        dom_code = codes[np.arange(codes.shape[0]), winner]
        survivors = codes == dom_code[:, None]
        tie = survivors.sum(axis=1) > 1
        return BatchWtaResult(
            winner=winner,
            dom_code=dom_code,
            codes=codes,
            survivors=survivors,
            tie=tie,
            events=np.zeros((codes.shape[0], len(EVENT_KEYS)), dtype=np.int64),
        )
