"""Equivalence tests for the one recall path.

Every unseeded entry point draws one int64 request seed per row from the
module generator and runs the seeded definition of that row's noise.
numpy draws the seeds one after another, so a loop of ``recognise``, a
chunked ``recognise_batch`` and ``recognise_batch_seeded`` under seeds
drawn from a twin module's generator see the same seeds:

* on the ideal solve path (``include_parasitics=False``), with or
  without input variation, every field of every
  :class:`RecognitionResult` is **bit-identical** — winner, DOM code,
  tie flag, event counters, column currents and static power;
* on the parasitic path ``recognise`` keeps the direct sparse solve
  while the batch paths run the Woodbury engine: all discrete fields
  stay identical and the analog fields agree to solver precision;
* the generators end in the same state.

One test pins the vectorised WTA kernel against the per-neuron scalar
loop, which only stochastic and no-preset neurons still run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult, InputDacBank
from repro.core.config import default_parameters
from repro.core.wta import SpinCmosWta
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.solver import CrossbarSolver
from repro.utils.rng import draw_seeds

FEATURES = 32
TEMPLATES = 6

MODES = {
    "ideal": dict(include_parasitics=False),
    "noisy": dict(include_parasitics=False, input_variation=0.05),
    "parasitic": dict(include_parasitics=True),
    "noisy-parasitic": dict(include_parasitics=True, input_variation=0.05),
}
#: Modes in which the batched path shares the scalar arithmetic exactly.
BITWISE_MODES = ("ideal", "noisy")


def template_codes(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 32, size=(FEATURES, TEMPLATES))


def input_codes(seed: int, batch: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1000)
    return rng.integers(0, 32, size=(batch, FEATURES))


def build(seed: int, **kwargs) -> AssociativeMemoryModule:
    return AssociativeMemoryModule.from_templates(
        template_codes(seed), seed=seed, **kwargs
    )


def assert_equivalent(loop_results, batch_result, exact_analog: bool) -> None:
    assert len(batch_result) == len(loop_results)
    for index, scalar in enumerate(loop_results):
        sample = batch_result[index]
        assert sample.winner_column == scalar.winner_column
        assert sample.winner == scalar.winner
        assert sample.dom_code == scalar.dom_code
        assert sample.accepted == scalar.accepted
        assert sample.tie == scalar.tie
        assert np.array_equal(sample.codes, scalar.codes)
        np.testing.assert_array_equal(sample.events, scalar.events)
        if exact_analog:
            assert np.array_equal(sample.column_currents, scalar.column_currents)
            assert sample.static_power == scalar.static_power
        else:
            np.testing.assert_allclose(
                sample.column_currents, scalar.column_currents, rtol=1e-6
            )
            np.testing.assert_allclose(
                sample.static_power, scalar.static_power, rtol=1e-9
            )


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_recognise_batch_matches_per_sample_loop(seed, batch, mode):
    inputs = input_codes(seed, batch)
    loop_amm = build(seed, **MODES[mode])
    batch_amm = build(seed, **MODES[mode])
    loop_results = [loop_amm.recognise(sample) for sample in inputs]
    batch_result = batch_amm.recognise_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=mode in BITWISE_MODES)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_recognise_ideal_batch_bit_identical(seed, batch):
    inputs = input_codes(seed, batch)
    loop_amm = build(seed)
    batch_amm = build(seed)
    loop_results = [loop_amm.recognise_ideal(sample) for sample in inputs]
    batch_result = batch_amm.recognise_ideal_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=True)


def generator_state(amm: AssociativeMemoryModule) -> dict:
    return amm._rng.bit_generator.state


def chunked(amm: AssociativeMemoryModule, inputs: np.ndarray, cuts) -> BatchRecognitionResult:
    bounds = [0, *sorted(set(cuts)), len(inputs)]
    return BatchRecognitionResult.stack(
        [
            sample
            for start, stop in zip(bounds[:-1], bounds[1:])
            for sample in amm.recognise_batch(inputs[start:stop])
        ]
    )


@settings(max_examples=24, deadline=None)
@given(
    mode=st.sampled_from(sorted(MODES)),
    batch=st.integers(min_value=1, max_value=12),
    cut_fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    seed=st.sampled_from([3, 11, 29]),
)
def test_loop_batch_and_seeded_paths_agree(mode, batch, cut_fractions, seed):
    """``recognise`` in a loop ≡ chunked ``recognise_batch`` ≡
    ``recognise_batch_seeded`` under seeds drawn from a twin generator."""
    inputs = input_codes(seed, batch)
    cuts = [int(fraction * batch) for fraction in cut_fractions]
    cuts = [cut for cut in cuts if 0 < cut < batch]
    loop_amm, batch_amm, seeded_amm = (build(seed, **MODES[mode]) for _ in range(3))
    loop_result = BatchRecognitionResult.stack([loop_amm.recognise(row) for row in inputs])
    batch_result = chunked(batch_amm, inputs, cuts)
    seeded_result = seeded_amm.recognise_batch_seeded(
        inputs, draw_seeds(seeded_amm._rng, batch)
    )
    assert_equivalent(list(loop_result), batch_result, exact_analog=mode in BITWISE_MODES)
    assert_equivalent(list(seeded_result), batch_result, exact_analog=mode in BITWISE_MODES)
    assert generator_state(loop_amm) == generator_state(batch_amm)
    assert generator_state(seeded_amm) == generator_state(batch_amm)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_interleaved_recalls_keep_one_seed_sequence(mode):
    """A batch draws the generator exactly as the loop would.

    After recalling the same inputs batched on one module and looped on
    its twin, one further *scalar* recall on each must still agree in
    every field, and it must be the seeded answer to the next seed of a
    third twin's generator.
    """
    inputs = input_codes(29, 9)
    loop_amm, batch_amm, seeded_amm = (build(29, **MODES[mode]) for _ in range(3))
    for sample in inputs:
        loop_amm.recognise(sample)
    batch_amm.recognise_batch(inputs)
    draw_seeds(seeded_amm._rng, len(inputs))
    after = [amm.recognise(inputs[0]) for amm in (loop_amm, batch_amm)]
    seeded = seeded_amm.recognise_batch_seeded(inputs[:1], draw_seeds(seeded_amm._rng, 1))
    assert_equivalent(after[:1], BatchRecognitionResult.stack(after[1:]), exact_analog=True)
    assert_equivalent(after[:1], seeded, exact_analog=mode in BITWISE_MODES)
    assert generator_state(loop_amm) == generator_state(batch_amm) == generator_state(seeded_amm)


def test_stochastic_neurons_fall_back_to_exact_loop():
    """With stochastic DWN switching the conversion runs the per-neuron
    loop row by row, so equivalence is exact in every field by construction."""
    inputs = input_codes(7, 12)
    loop_amm = build(7, stochastic_dwn=True, include_parasitics=False)
    batch_amm = build(7, stochastic_dwn=True, include_parasitics=False)
    loop_results = [loop_amm.recognise(sample) for sample in inputs]
    batch_result = batch_amm.recognise_batch(inputs)
    assert_equivalent(loop_results, batch_result, exact_analog=True)
    assert generator_state(loop_amm) == generator_state(batch_amm)


def reference_stack_wta(columns: int) -> SpinCmosWta:
    """A WTA with the reference read stack, on which no latch offset can flip."""
    parameters = default_parameters()
    return SpinCmosWta(
        columns=columns,
        resolution_bits=parameters.wta_resolution_bits,
        full_scale_current=parameters.wta_full_scale_current,
        dwn_config=parameters.dwn_config(),
        dac_gain_sigma=0.03,
        mtj=parameters.mtj(),
        seed=101,
    )


def test_seeded_kernel_matches_the_per_neuron_loop():
    """The vectorised kernel against the scalar loop through fresh neurons,
    every field at ``rtol=0`` (currents on the comparator lattice included)."""
    columns = 7
    wta = reference_stack_wta(columns)
    assert not wta._offsets_can_flip()
    rng = np.random.default_rng(17)
    anywhere = rng.uniform(0.0, 1.2 * wta.full_scale_current, size=(24, columns))
    lattice = rng.integers(-1, wta.levels + 1, size=(24, columns)) * wta.lsb_current
    on_lattice = lattice * wta._dac_gains + wta.dwn_config.threshold_current
    currents = np.vstack([anywhere, on_lattice, np.repeat(anywhere[:4, :1], columns, axis=1)])
    seeded = wta.convert_batch_seeded(currents, np.arange(len(currents)))
    for index, row in enumerate(currents):
        looped = reference_stack_wta(columns)._convert_with_neurons(row)
        mine = seeded.result(index)
        assert (mine.winner, mine.dom_code, mine.tie) == (looped.winner, looped.dom_code, looped.tie)
        np.testing.assert_array_equal(mine.codes, looped.codes)
        np.testing.assert_array_equal(mine.survivors, looped.survivors)
        np.testing.assert_array_equal(mine.events, looped.events, strict=True)
    assert wta._neurons is None


def test_wta_convert_loop_matches_batch_without_building_neurons():
    """``convert`` in a loop ≡ ``convert_batch`` ≡ ``convert_batch_seeded``
    under seeds from a twin generator; the deterministic stack never builds
    the per-neuron objects."""
    rng = np.random.default_rng(17)
    currents = rng.uniform(0.0, 32e-6, size=(11, 5))
    loop_wta, batch_wta, seeded_wta = (SpinCmosWta(columns=5, seed=101) for _ in range(3))
    loop_results = [loop_wta.convert(sample) for sample in currents]
    batch_result = batch_wta.convert_batch(currents)
    seeded = seeded_wta.convert_batch_seeded(currents, draw_seeds(seeded_wta._rng, len(currents)))
    for index, scalar in enumerate(loop_results):
        for result in (batch_result, seeded):
            assert result.result(index).winner == scalar.winner
            assert np.array_equal(result.codes[index], scalar.codes)
            np.testing.assert_array_equal(result.events[index], scalar.events)
    states = {str(wta._rng.bit_generator.state) for wta in (loop_wta, batch_wta, seeded_wta)}
    assert len(states) == 1
    assert all(wta._neurons is None for wta in (loop_wta, batch_wta, seeded_wta))


def test_wta_ideal_batch_matches_scalar_ideal():
    rng = np.random.default_rng(23)
    currents = rng.uniform(0.0, 32e-6, size=(13, 8))
    batch = SpinCmosWta.ideal_batch(currents, 5, 32e-6)
    for index, sample in enumerate(currents):
        scalar = SpinCmosWta.ideal(sample, 5, 32e-6)
        assert batch.result(index).winner == scalar.winner
        assert batch.result(index).dom_code == scalar.dom_code
        assert bool(batch.tie[index]) == scalar.tie
        assert np.array_equal(batch.codes[index], scalar.codes)
        assert np.array_equal(batch.survivors[index], scalar.survivors)


def test_input_dac_bank_batch_conversion_bit_identical():
    bank = InputDacBank(rows=16, bits=5, unit_conductance=1e-6, mismatch_sigma=0.1, seed=4)
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 32, size=(9, 16))
    batched = bank.conductances(codes)
    assert batched.shape == (9, 16)
    for index in range(9):
        assert np.array_equal(batched[index], bank.conductances(codes[index]))


def test_input_dac_bank_batch_validation():
    bank = InputDacBank(rows=4, bits=5, unit_conductance=1e-6)
    with pytest.raises(ValueError):
        bank.conductances(np.zeros((3, 5), dtype=int))
    with pytest.raises(ValueError):
        bank.conductances(np.full((2, 4), 32))


class TestSolverBatch:
    def make_solver(self, seed: int) -> CrossbarSolver:
        rng = np.random.default_rng(seed)
        conductances = rng.uniform(1e-6, 1e-4, size=(12, 5))
        crossbar = ResistiveCrossbar(conductances, dummy_conductances=rng.uniform(0, 1e-5, size=12))
        return CrossbarSolver(crossbar)

    def test_ideal_batch_bit_identical_to_scalar(self):
        solver = self.make_solver(31)
        rng = np.random.default_rng(32)
        dacs = rng.uniform(0.0, 1e-5, size=(6, 12))
        batch = solver.solve_batch(dacs, include_parasitics=False)
        for index in range(6):
            scalar = solver.solve(dacs[index], include_parasitics=False)
            assert np.array_equal(batch.column_currents[index], scalar.column_currents)
            assert batch.supply_current[index] == scalar.supply_current
            assert batch.static_power[index] == scalar.static_power

    def test_parasitic_batch_matches_sparse_solve(self):
        solver = self.make_solver(41)
        rng = np.random.default_rng(42)
        dacs = rng.uniform(0.0, 1e-5, size=(6, 12))
        batch = solver.solve_batch(dacs, include_parasitics=True)
        for index in range(6):
            scalar = solver.solve(dacs[index], include_parasitics=True)
            np.testing.assert_allclose(
                batch.column_currents[index], scalar.column_currents, rtol=1e-8
            )
            np.testing.assert_allclose(
                batch.supply_current[index], scalar.supply_current, rtol=1e-10
            )

    def test_batch_shape_validation(self):
        solver = self.make_solver(51)
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((3, 11)))
        with pytest.raises(ValueError):
            solver.solve_batch(np.full((2, 12), -1.0))
