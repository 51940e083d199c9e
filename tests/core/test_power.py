"""Tests for the spin-CMOS AMM power model (Fig. 13a, Table 1 column 1)."""

import dataclasses

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule
from repro.core.config import default_parameters
from repro.core.power import PowerBreakdown, SpinAmmPowerModel
from repro.core.wta import EVENT_KEYS
from repro.devices.latch import DynamicCmosLatch
from repro.devices.transistor import TechnologyParameters

@pytest.fixture(scope="module")
def model():
    return SpinAmmPowerModel(default_parameters())


class TestBreakdownStructure:
    def test_breakdown_components_positive(self, model):
        breakdown = model.breakdown()
        assert breakdown.static_rcm > 0
        assert breakdown.static_sar_dac > 0
        assert breakdown.dynamic > 0
        assert breakdown.total == pytest.approx(
            breakdown.static_rcm + breakdown.static_sar_dac + breakdown.dynamic
        )

    def test_energy_per_recognition(self, model):
        breakdown = model.breakdown()
        assert breakdown.energy_per_recognition == pytest.approx(
            breakdown.total / 100e6
        )

    def test_as_dict_keys(self, model):
        data = model.breakdown().as_dict()
        for key in ("static_rcm", "static_sar_dac", "dynamic", "total", "energy_per_recognition"):
            assert key in data


class TestCalibrationAgainstPaper:
    def test_total_power_5bit_near_65uW(self, model):
        # Table 1: 65 uW for the 5-bit design at 100 MHz.
        assert model.total_power(resolution_bits=5) == pytest.approx(65e-6, rel=0.25)

    def test_total_power_4bit_near_45uW(self, model):
        assert model.total_power(resolution_bits=4) == pytest.approx(45e-6, rel=0.25)

    def test_total_power_3bit_near_32uW(self, model):
        assert model.total_power(resolution_bits=3) == pytest.approx(32e-6, rel=0.3)

    def test_power_decreases_with_resolution(self, model):
        assert (
            model.total_power(resolution_bits=5)
            > model.total_power(resolution_bits=4)
            > model.total_power(resolution_bits=3)
        )

    def test_energy_per_recognition_sub_picojoule(self, model):
        assert model.energy_per_recognition(resolution_bits=5) < 1e-12


class TestThresholdScaling:
    def test_static_power_proportional_to_threshold(self, model):
        # Fig. 13a: static power scales with the DWN threshold.
        low = model.breakdown(threshold_current=0.5e-6)
        high = model.breakdown(threshold_current=1.0e-6)
        assert high.static_total == pytest.approx(2 * low.static_total, rel=1e-6)

    def test_dynamic_power_independent_of_threshold(self, model):
        low = model.breakdown(threshold_current=0.25e-6)
        high = model.breakdown(threshold_current=2.0e-6)
        assert low.dynamic == pytest.approx(high.dynamic)

    def test_dynamic_dominates_at_low_threshold(self, model):
        breakdown = model.breakdown(threshold_current=0.25e-6)
        assert breakdown.dynamic > breakdown.static_total

    def test_static_comparable_to_dynamic_at_nominal_threshold(self, model):
        # Fig. 13a shows the two components of comparable magnitude at the
        # 1 uA design point.
        breakdown = model.breakdown(threshold_current=1.0e-6)
        ratio = breakdown.static_total / breakdown.dynamic
        assert 0.4 < ratio < 2.5


def counters(**counts):
    """An ``EVENT_KEYS``-ordered counter vector; unnamed counters are 0."""
    return np.array([counts.get(key, 0) for key in EVENT_KEYS], dtype=np.int64)


def dynamic_energy(model, events):
    """Dynamic energy (J) of one conversion through the public API."""
    return model.power_from_measurement(0.0, events).dynamic / model.parameters.clock_frequency_hz


class TestMeasuredActivityPath:
    def test_dynamic_energy_from_events_positive(self, model):
        events = counters(
            latch_senses=200,
            sar_bit_writes=300,
            dac_transitions=250,
            tracking_writes=4,
            detection_precharges=5,
        )
        assert dynamic_energy(model, events) > 0

    def test_more_activity_more_energy(self, model):
        low = dynamic_energy(model, counters(latch_senses=100))
        high = dynamic_energy(model, counters(latch_senses=300))
        assert high == pytest.approx(3 * low)

    def test_power_from_measurement_combines_terms(self, model):
        breakdown = model.power_from_measurement(
            static_power=30e-6, events=counters(latch_senses=200, detection_precharges=5)
        )
        assert breakdown.static_rcm == pytest.approx(30e-6)
        assert breakdown.total > 30e-6

    def test_invalid_static_power_rejected(self, model):
        with pytest.raises(ValueError):
            model.power_from_measurement(-1.0, counters())

    @pytest.mark.parametrize("shape", [(6,), (8,), (1, 7), (7, 1), ()])
    def test_counter_vector_shape_checked(self, model, shape):
        with pytest.raises(ValueError, match="events must have shape"):
            model.power_from_measurement(1e-6, np.zeros(shape, dtype=np.int64))


def uncached_dynamic_energy(model, events):
    """The measured-activity formula, every term re-derived per call, on
    the counters looked up by name as the per-row dicts of the earlier
    format were."""
    counts = dict(zip(EVENT_KEYS, (int(value) for value in events)))
    inverter = model.technology.inverter_switching_energy()
    energy = 0.0
    energy += counts["latch_senses"] * model.latch.sense_energy()
    energy += counts["sar_bit_writes"] * 2.0 * inverter
    energy += counts["dac_transitions"] * inverter
    energy += counts["tracking_writes"] * model.parameters.num_templates * inverter
    energy += (
        counts["detection_precharges"]
        * model.detection_line_capacitance
        * model.technology.supply_voltage**2
    )
    return energy


def uncached_power_from_measurement(model, static_power, events):
    return PowerBreakdown(
        static_rcm=static_power,
        static_sar_dac=model.sar_dac_static_power(),
        dynamic=uncached_dynamic_energy(model, events)
        * model.parameters.clock_frequency_hz,
        frequency=model.parameters.clock_frequency_hz,
    )


def random_events(rng):
    """A counter vector with random magnitudes, some counters zero."""
    return np.array(
        [
            int(rng.integers(0, 10 ** int(rng.integers(1, 8)))) if rng.random() < 0.8 else 0
            for _ in EVENT_KEYS
        ],
        dtype=np.int64,
    )


class TestCachedEventCoefficients:
    @pytest.mark.parametrize("num_templates", [3, 40, 77])
    def test_bit_identical_to_uncached_formula(self, num_templates):
        rng = np.random.default_rng(num_templates)
        parameters = dataclasses.replace(
            default_parameters(), num_templates=num_templates
        )
        model = SpinAmmPowerModel(parameters)
        for _ in range(300):
            events = random_events(rng)
            static_power = float(rng.random()) * 1e-4
            got = model.power_from_measurement(static_power, events)
            want = uncached_power_from_measurement(model, static_power, events)
            assert got == want  # every field, at rtol=0
            # A plain sequence of Python ints costs the same.
            assert model.power_from_measurement(static_power, events.tolist()) == want

    def test_bit_identical_on_recognition_batch_rows(self):
        """Every row of a real seeded batch, and its scalar result, costs as
        the name-keyed uncached formula at rtol=0."""
        rng = np.random.default_rng(30)
        templates = rng.integers(0, 32, size=(32, 6))
        amm = AssociativeMemoryModule.from_templates(
            templates, seed=30, include_parasitics=True, input_variation=0.05
        )
        codes = rng.integers(0, 32, size=(48, 32))
        result = amm.recognise_batch_seeded(codes, np.arange(48, dtype=np.int64) + 900)
        model = SpinAmmPowerModel(amm.parameters)
        assert len({tuple(row) for row in result.events.tolist()}) > 1
        for index, (power, events) in enumerate(zip(result.static_power, result.events)):
            want = uncached_power_from_measurement(model, float(power), events)
            assert model.power_from_measurement(float(power), events) == want
            scalar = result[index]
            assert model.power_from_measurement(scalar.static_power, scalar.events) == want

    def test_ideal_row_costs_no_dynamic_energy(self):
        rng = np.random.default_rng(31)
        templates = rng.integers(0, 32, size=(32, 6))
        amm = AssociativeMemoryModule.from_templates(templates, seed=31)
        result = amm.recognise_ideal_batch(rng.integers(0, 32, size=(3, 32)))
        model = SpinAmmPowerModel(amm.parameters)
        for power, events in zip(result.static_power, result.events):
            breakdown = model.power_from_measurement(float(power), events)
            assert breakdown.dynamic == 0.0
            assert breakdown == uncached_power_from_measurement(model, float(power), events)

    def test_one_coefficient_lookup_per_costed_row(self, monkeypatch):
        model = SpinAmmPowerModel(default_parameters())
        lookup = model._event_coefficients
        calls = []
        monkeypatch.setattr(model, "_event_coefficients", lambda: calls.append(1) or lookup())
        model.power_from_measurement(1e-6, counters(latch_senses=200))
        assert len(calls) == 1

    def test_attribute_changes_after_construction_take_effect(self):
        model = SpinAmmPowerModel(default_parameters())
        events = np.full(len(EVENT_KEYS), 1000, dtype=np.int64)
        before = model.power_from_measurement(1e-6, events)
        model.technology = TechnologyParameters(supply_voltage=0.8)
        model.latch = DynamicCmosLatch(supply_voltage=0.8, node_capacitance=2e-15)
        model.detection_line_capacitance = 8e-15
        model.sar_utilization = 0.25
        model.parameters = model.parameters.with_delta_v(60e-3)
        after = model.power_from_measurement(1e-6, events)
        assert after != before
        assert after == uncached_power_from_measurement(model, 1e-6, events)


class TestValidation:
    def test_invalid_utilisation_rejected(self):
        with pytest.raises(ValueError):
            SpinAmmPowerModel(column_utilization=1.5)

    def test_invalid_capacitance_rejected(self):
        with pytest.raises(ValueError):
            SpinAmmPowerModel(latch_capacitance=0.0)
