"""Tests for the spin-CMOS SAR winner-take-all (Figs. 10-12)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wta import EVENT_KEYS, SpinCmosWta
from repro.devices.dwn import DwnConfig


def make_wta(columns=6, bits=5, full_scale=32e-6, **kwargs) -> SpinCmosWta:
    return SpinCmosWta(
        columns=columns,
        resolution_bits=bits,
        full_scale_current=full_scale,
        seed=0,
        **kwargs,
    )


class TestConstruction:
    def test_lsb_equals_threshold_in_reference_design(self):
        wta = make_wta()
        assert wta.lsb_current == pytest.approx(1e-6)
        assert wta.levels == 32

    def test_dac_current_linear_in_code(self):
        wta = make_wta()
        assert wta.dac_current(0, 8) == pytest.approx(8e-6)
        assert wta.dac_current(0, 0) == 0.0

    def test_dac_code_range_checked(self):
        wta = make_wta()
        with pytest.raises(ValueError):
            wta.dac_current(0, 32)

    def test_invalid_shapes_rejected(self):
        wta = make_wta(columns=4)
        with pytest.raises(ValueError):
            wta.convert(np.zeros(5))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SpinCmosWta(columns=0)
        with pytest.raises(ValueError):
            SpinCmosWta(columns=2, dac_gain_sigma=0.9)


class TestConversion:
    def test_codes_match_ideal_quantisation_for_well_separated_inputs(self):
        wta = make_wta(columns=5)
        currents = np.array([5.5, 12.5, 20.5, 28.5, 30.5]) * 1e-6
        result = wta.convert(currents)
        # With the per-cycle preset the hardware resolves floor(I/LSB) - 1
        # (the hysteresis costs exactly one LSB, uniformly).
        expected = np.floor(currents / wta.lsb_current).astype(int) - 1
        assert np.array_equal(result.codes, expected)

    def test_winner_is_largest_current(self):
        wta = make_wta(columns=6)
        currents = np.array([3, 30, 7, 15, 22, 9], dtype=float) * 1e-6
        result = wta.convert(currents)
        assert result.winner == 1
        assert result.dom_code == result.codes[1]
        assert not result.tie

    def test_survivors_mark_winner(self):
        wta = make_wta(columns=4)
        currents = np.array([5, 10, 25, 14], dtype=float) * 1e-6
        result = wta.convert(currents)
        assert result.survivors[2]
        assert result.survivors.sum() >= 1

    def test_tie_detection(self):
        wta = make_wta(columns=3)
        currents = np.array([20.4, 20.6, 5.0]) * 1e-6  # within one LSB
        result = wta.convert(currents)
        assert result.tie
        assert result.winner in (0, 1)

    def test_all_zero_inputs_resolve_gracefully(self):
        wta = make_wta(columns=4)
        result = wta.convert(np.zeros(4))
        assert result.dom_code == 0
        assert result.tie

    def test_currents_above_full_scale_saturate(self):
        wta = make_wta(columns=2)
        result = wta.convert(np.array([100e-6, 5e-6]))
        assert result.codes[0] == wta.levels - 1
        assert result.winner == 0

    def test_acceptance_threshold(self):
        wta = make_wta(columns=2)
        result = wta.convert(np.array([20e-6, 5e-6]))
        assert result.accepted(dom_threshold_code=8)
        assert not result.accepted(dom_threshold_code=25)

    def test_matches_ideal_reference_winner_on_random_inputs(self):
        wta = make_wta(columns=8)
        rng = np.random.default_rng(3)
        agreements = 0
        trials = 30
        for _ in range(trials):
            currents = rng.uniform(2e-6, 30e-6, 8)
            # Skip near-ties where one LSB legitimately changes the answer.
            ordered = np.sort(currents)[::-1]
            if ordered[0] - ordered[1] < 2.5e-6:
                agreements += 1
                continue
            hardware = wta.convert(currents)
            ideal = SpinCmosWta.ideal(currents, 5, 32e-6)
            if hardware.winner == ideal.winner:
                agreements += 1
        assert agreements == trials

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_property_winner_within_one_lsb_of_maximum(self, seed):
        wta = make_wta(columns=6)
        rng = np.random.default_rng(seed)
        currents = rng.uniform(0, 31e-6, 6)
        result = wta.convert(currents)
        assert currents.max() - currents[result.winner] <= 2 * wta.lsb_current


def event(result, key):
    """One named counter of a scalar result's ``EVENT_KEYS``-ordered vector."""
    return result.events[EVENT_KEYS.index(key)]


class TestEvents:
    def test_latch_senses_count(self):
        wta = make_wta(columns=5, bits=5)
        result = wta.convert(np.linspace(2e-6, 30e-6, 5))
        assert event(result, "latch_senses") == 5 * 5

    def test_detection_precharges_once_per_cycle(self):
        wta = make_wta(columns=5, bits=4)
        result = wta.convert(np.linspace(2e-6, 30e-6, 5))
        assert event(result, "detection_precharges") == 4

    def test_dwn_switch_count_positive(self):
        wta = make_wta(columns=3)
        result = wta.convert(np.array([30e-6, 10e-6, 2e-6]))
        assert event(result, "dwn_switches") > 0

    def test_tracking_writes_bounded_by_cycles(self):
        wta = make_wta(columns=4, bits=5)
        result = wta.convert(np.array([30e-6, 10e-6, 2e-6, 18e-6]))
        assert 1 <= event(result, "tracking_writes") <= 5

    def test_counters_are_one_int64_array_in_event_key_order(self):
        wta = make_wta(columns=4, bits=5)
        currents = np.array([[30e-6, 10e-6, 2e-6, 18e-6], [1e-6, 20e-6, 20e-6, 5e-6]])
        batch = wta.convert_batch(currents)
        assert batch.events.dtype == np.int64
        assert batch.events.shape == (2, len(EVENT_KEYS))
        np.testing.assert_array_equal(batch.result(1).events, batch.events[1])
        ideal = SpinCmosWta.ideal_batch(currents, 5, 32e-6)
        np.testing.assert_array_equal(ideal.events, np.zeros((2, len(EVENT_KEYS))))
        assert ideal.events.dtype == np.int64


class TestNonIdealities:
    def test_dac_gain_mismatch_changes_codes(self):
        ideal = make_wta(columns=4)
        mismatched = SpinCmosWta(
            columns=4, resolution_bits=5, full_scale_current=32e-6,
            dac_gain_sigma=0.15, seed=7,
        )
        currents = np.array([30.5, 28.5, 26.5, 24.5], dtype=float) * 1e-6
        codes_ideal = ideal.convert(currents).codes
        codes_mismatched = mismatched.convert(currents).codes
        assert not np.array_equal(codes_ideal, codes_mismatched)

    def test_no_reset_degrades_conversion(self):
        currents = np.array([20.7e-6, 19.2e-6, 5e-6, 12.4e-6])
        with_reset = make_wta(columns=4, reset_neurons=True).convert(currents)
        without_reset = SpinCmosWta(
            columns=4, resolution_bits=5, full_scale_current=32e-6,
            reset_neurons=False, seed=0,
        ).convert(currents)
        # The preset version resolves to exactly floor(I/LSB)-1; the
        # no-preset version deviates for at least one column.
        expected = np.floor(currents / 1e-6).astype(int) - 1
        assert np.array_equal(with_reset.codes, expected)
        assert not np.array_equal(without_reset.codes, expected)

    def test_higher_threshold_coarser_distinction(self):
        coarse = SpinCmosWta(
            columns=2, resolution_bits=5, full_scale_current=32e-6,
            dwn_config=DwnConfig(threshold_current=4e-6), seed=0,
        )
        currents = np.array([20e-6, 18e-6])
        result = coarse.convert(currents)
        # A 4 uA dead zone cannot separate inputs 2 uA apart reliably; the
        # codes end up lower than the ideal values.
        assert result.codes[0] <= 19


class TestIdealReference:
    def test_ideal_winner_is_argmax(self):
        currents = np.array([5e-6, 25e-6, 10e-6])
        result = SpinCmosWta.ideal(currents, 5, 32e-6)
        assert result.winner == 1
        assert result.dom_code == 25

    def test_ideal_tie_flag(self):
        currents = np.array([20.1e-6, 20.2e-6])
        result = SpinCmosWta.ideal(currents, 5, 32e-6)
        assert result.tie

    def test_ideal_validates_arguments(self):
        with pytest.raises(ValueError):
            SpinCmosWta.ideal(np.array([1e-6]), 0, 32e-6)


class TestClosedFormConversion:
    """With ``offsets=None`` (no latch offset can flip a decision) the fast
    conversion finds the final codes by division and derives survivors,
    winner, tie and every event counter from them; it must equal the
    cycle-by-cycle loop fed zero offsets, which then senses exactly the
    comparator."""

    @settings(max_examples=150, deadline=None)
    @given(
        columns=st.integers(min_value=1, max_value=12),
        bits=st.integers(min_value=1, max_value=8),
        batch=st.integers(min_value=1, max_value=6),
        full_scale=st.sampled_from([1e-7, 32e-6, 1e-3]),
        gain_sigma=st.sampled_from([0.0, 0.05, 0.3, 0.5]),
        first_gain=st.sampled_from([None, 0.0, -0.25]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_the_cycle_loop(
        self, columns, bits, batch, full_scale, gain_sigma, first_gain, seed
    ):
        closed, looped = (
            make_wta(columns=columns, bits=bits, full_scale=full_scale, dac_gain_sigma=gain_sigma)
            for _ in range(2)
        )
        if first_gain is not None:
            # A non-positive DAC gain breaks the division: the search runs.
            for wta in (closed, looped):
                wta._dac_gains[0] = first_gain
        mtj = closed.mtj
        assert mtj.resistance(True) < mtj.reference_resistance() <= mtj.resistance(False)
        rng = np.random.default_rng(seed)
        shape = (batch, columns)
        threshold = closed.dwn_config.threshold_current
        # Currents exactly on the comparator's lattice ``(k·lsb)·gain +
        # threshold`` (decisions on the boundary) or one ulp either side of
        # it, anywhere in range, far above full scale, or a copy of column
        # 0 (ties).
        lattice = rng.integers(-2, 2**bits + 2, size=shape)
        on_lattice = (lattice * closed.lsb_current) * closed._dac_gains
        on_lattice += threshold
        ulps = rng.integers(-1, 2, size=shape)
        on_lattice = np.where(
            ulps == 0, on_lattice, np.nextafter(on_lattice, np.copysign(np.inf, ulps))
        )
        anywhere = rng.uniform(-threshold, 1.2 * closed.full_scale_current, size=shape)
        above = full_scale * rng.uniform(1.0, 1e3, size=shape) + threshold
        pick = rng.integers(0, 4, size=shape)
        currents = np.select([pick == 0, pick == 1, pick == 2], [on_lattice, anywhere, above])
        currents = np.where(pick == 3, currents[:, :1], currents)

        got = closed._convert_batch_fast(currents, None)
        want = looped._convert_batch_fast(currents, np.zeros((batch, columns, bits)))
        for field in ("winner", "dom_code", "codes", "survivors", "tie"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
        np.testing.assert_array_equal(got.events, want.events)
        assert got.events.shape == (batch, len(EVENT_KEYS))
