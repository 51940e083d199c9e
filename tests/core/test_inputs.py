"""The shared batch validator: integral codes and seeds, never truncated."""

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule
from repro.core.inputs import check_batch, integral_array
from repro.core.wta import SpinCmosWta

FEATURES, TEMPLATES = 16, 4


@pytest.fixture(scope="module")
def amm():
    rng = np.random.default_rng(3)
    templates = rng.integers(0, 32, size=(FEATURES, TEMPLATES))
    return AssociativeMemoryModule.from_templates(templates, include_parasitics=False, seed=3)


@pytest.fixture(scope="module")
def codes():
    return np.random.default_rng(4).integers(0, 32, size=(2, FEATURES))


class TestIntegralArray:
    def test_integer_dtypes_are_returned_without_a_copy(self):
        values = np.arange(6, dtype=np.int64)
        assert integral_array("codes", values) is values
        assert integral_array("codes", np.arange(3, dtype=np.uint8)).dtype == np.int64
        assert integral_array("codes", [True, False]).tolist() == [1, 0]

    def test_integral_floats_are_accepted(self):
        converted = integral_array("codes", np.array([0.0, 3.0, -2.0, 2.0**62]))
        assert converted.dtype == np.int64
        assert converted.tolist() == [0, 3, -2, 2**62]

    @pytest.mark.parametrize(
        "bad", [2.5, np.nan, np.inf, -np.inf, 2.0**63, 1e30], ids=str
    )
    def test_non_integral_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="codes must hold integers"):
            integral_array("codes", np.array([1.0, bad]))


class TestCheckBatch:
    def test_shape_and_emptiness(self):
        with pytest.raises(ValueError, match=r"shape \(B, 3\)"):
            check_batch("codes", np.zeros((2, 4), dtype=int), 3)
        with pytest.raises(ValueError, match=r"shape \(B, 3\)"):
            check_batch("codes", np.zeros(3, dtype=int), 3)
        with pytest.raises(ValueError, match="must not be empty"):
            check_batch("codes", np.zeros((0, 3), dtype=int), 3)
        batch, seeds = check_batch("dac", np.zeros((0, 3)), 3, dtype=float, allow_empty=True)
        assert batch.shape == (0, 3) and seeds is None

    def test_seeds(self):
        batch, seeds = check_batch("codes", [[1, 2]], 2, [7.0])
        assert batch.dtype == seeds.dtype == np.int64
        assert seeds.tolist() == [7]
        with pytest.raises(ValueError, match=r"request_seeds must have shape \(1,\)"):
            check_batch("codes", [[1, 2]], 2, [1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            check_batch("codes", [[1, 2]], 2, [-1])
        with pytest.raises(ValueError, match="request_seeds must hold integers"):
            check_batch("codes", [[1, 2]], 2, [2.5])

    def test_currents_are_read_as_floats(self):
        batch, _ = check_batch("column_currents", [[1.5e-6, 2.5e-6]], 2, dtype=float)
        assert batch.dtype == float and batch[0, 0] == 1.5e-6


class TestEntryPoints:
    def test_seeded_recall_refuses_fractional_codes_and_seeds(self, amm, codes):
        with pytest.raises(ValueError, match="integers"):
            amm.recognise_batch_seeded(codes + 0.7, [2, 3])
        with pytest.raises(ValueError, match="integers"):
            amm.recognise_batch_seeded(codes, [2.5, 3.9])

    def test_unseeded_recall_refuses_fractional_codes(self, amm, codes):
        for call in (amm.recognise_batch, amm.column_solution_batch, amm.recognise_ideal_batch):
            with pytest.raises(ValueError, match="integers"):
                call(codes + 0.5)
        for call in (amm.recognise, amm.column_solution, amm.recognise_ideal):
            with pytest.raises(ValueError, match="integers"):
                call(codes[0] + 0.5)

    def test_seeded_conversion_refuses_fractional_seeds(self):
        wta = SpinCmosWta(columns=3, seed=0)
        with pytest.raises(ValueError, match="integers"):
            wta.convert_batch_seeded(np.full((1, 3), 5e-6), [0.5])

    def test_dac_bank_refuses_fractional_codes(self, amm, codes):
        dacs = amm.input_dacs
        with pytest.raises(ValueError, match="integers"):
            dacs.conductances(codes + 0.7)
        with pytest.raises(ValueError, match="integers"):
            dacs.conductances(codes[0] + 0.5)
        np.testing.assert_array_equal(
            dacs.conductances(codes.astype(float)), dacs.conductances(codes)
        )
