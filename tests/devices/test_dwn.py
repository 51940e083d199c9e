"""Tests for the domain-wall neuron (spin neuron) comparator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.dwn import DomainWallNeuron, DwnConfig
from repro.devices.latch import DynamicCmosLatch


def make_neuron(**kwargs) -> DomainWallNeuron:
    config = DwnConfig(**kwargs) if kwargs else DwnConfig()
    return DomainWallNeuron(config=config, seed=0)


class TestConfig:
    def test_default_threshold_matches_table2(self):
        assert DwnConfig().threshold_current == pytest.approx(1.0e-6)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            DwnConfig(threshold_current=-1e-6)

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError):
            DomainWallNeuron(initial_state=0)


class TestSwitching:
    def test_positive_overdrive_sets_plus_one(self):
        neuron = make_neuron()
        assert neuron.apply_current(2e-6) == 1

    def test_negative_overdrive_sets_minus_one(self):
        neuron = make_neuron()
        neuron.apply_current(2e-6)
        assert neuron.apply_current(-2e-6) == -1

    def test_subthreshold_current_holds_state(self):
        neuron = make_neuron()
        neuron.apply_current(2e-6)
        assert neuron.apply_current(-0.5e-6) == 1
        assert neuron.apply_current(0.0) == 1

    def test_exact_threshold_switches(self):
        neuron = make_neuron()
        assert neuron.apply_current(1.0e-6) == 1

    def test_switch_count_increments_only_on_flips(self):
        neuron = make_neuron()
        neuron.apply_current(2e-6)
        neuron.apply_current(3e-6)  # same polarity, no flip
        neuron.apply_current(-2e-6)
        assert neuron.switch_count == 2

    def test_reset_counts_switch_when_state_changes(self):
        neuron = make_neuron()
        neuron.apply_current(2e-6)
        count = neuron.switch_count
        neuron.reset(-1)
        assert neuron.switch_count == count + 1
        neuron.reset(-1)
        assert neuron.switch_count == count + 1

    def test_compare_resolves_current_difference(self):
        neuron = make_neuron()
        assert neuron.compare(10e-6, 5e-6) == 1
        assert neuron.compare(5e-6, 10e-6) == -1


class TestHysteresis:
    def test_transfer_characteristic_shows_hysteresis(self):
        neuron = make_neuron()
        sweep = np.linspace(-3e-6, 3e-6, 121)
        trace = neuron.transfer_characteristic(sweep, sweeps=2)
        up = trace[: sweep.size]
        down = trace[sweep.size :][::-1]
        # On the up sweep the state flips to +1 only once +threshold is
        # crossed; on the down sweep it stays +1 until -threshold.
        differing = np.sum(up != down)
        assert differing > 0
        # The differing band equals the hysteresis window (2 x threshold).
        band_width = differing * (sweep[1] - sweep[0])
        assert band_width == pytest.approx(neuron.hysteresis_width(), rel=0.15)

    def test_hysteresis_width_is_twice_threshold(self):
        neuron = make_neuron(threshold_current=0.5e-6)
        assert neuron.hysteresis_width() == pytest.approx(1.0e-6)

    def test_transfer_characteristic_requires_positive_sweeps(self):
        neuron = make_neuron()
        with pytest.raises(ValueError):
            neuron.transfer_characteristic(np.array([0.0]), sweeps=0)


class TestStochasticSwitching:
    def test_deterministic_mode_has_step_probability(self):
        neuron = make_neuron(stochastic=False)
        assert neuron.switching_probability(0.99e-6) == 0.0
        assert neuron.switching_probability(1.01e-6) == 1.0

    def test_stochastic_probability_monotonic_in_current(self):
        neuron = make_neuron(stochastic=True)
        currents = np.linspace(0.1e-6, 0.99e-6, 10)
        probabilities = [neuron.switching_probability(i) for i in currents]
        assert np.all(np.diff(probabilities) >= 0)
        assert probabilities[0] < 1e-3
        assert probabilities[-1] < 1.0

    def test_stochastic_probability_above_threshold_is_one(self):
        neuron = make_neuron(stochastic=True)
        assert neuron.switching_probability(1.5e-6) == 1.0

    def test_barrier_controls_subthreshold_softness(self):
        soft = make_neuron(stochastic=True, barrier_kt=10.0)
        hard = make_neuron(stochastic=True, barrier_kt=40.0)
        current = 0.9e-6
        assert soft.switching_probability(current) > hard.switching_probability(current)


class TestReadout:
    def test_read_reflects_state_with_ideal_latch(self):
        latch = DynamicCmosLatch(offset_sigma_ohm=0.0)
        neuron = DomainWallNeuron(latch=latch, seed=0)
        neuron.apply_current(2e-6)
        assert neuron.read() == 1
        neuron.apply_current(-2e-6)
        assert neuron.read() == -1

    def test_evaluate_combines_apply_and_read(self):
        latch = DynamicCmosLatch(offset_sigma_ohm=0.0)
        neuron = DomainWallNeuron(latch=latch, seed=0)
        assert neuron.evaluate(10e-6, 5e-6) == 1
        assert neuron.evaluate(5e-6, 10e-6) == -1

    def test_read_energy_positive_and_small(self):
        neuron = make_neuron()
        assert 0 < neuron.read_energy() < 1e-14

    def test_switching_energy_positive(self):
        neuron = make_neuron()
        assert neuron.switching_energy() > 0

    @given(
        currents=st.lists(
            st.floats(min_value=-5e-6, max_value=5e-6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_state_always_binary(self, currents):
        neuron = make_neuron()
        for current in currents:
            state = neuron.apply_current(current)
            assert state in (-1, 1)

    @given(drive=st.floats(min_value=1.01e-6, max_value=1e-3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_property_above_threshold_always_follows_drive_sign(self, drive):
        neuron = make_neuron()
        assert neuron.apply_current(drive) == 1
        assert neuron.apply_current(-drive) == -1
