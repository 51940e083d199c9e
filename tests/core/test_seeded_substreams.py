"""The seeded recall path's per-request noise, pinned to its definition.

Sample ``i`` of ``recognise_batch_seeded`` draws its input variation from
``default_rng(SeedSequence(entropy=seeds[i], spawn_key=(0,)))`` and its
latch offsets from the same seed with ``spawn_key=(1,)``.  The tests
rebuild both draws here, one ``SeedSequence`` per row, and require every
output field to match bit for bit (``rtol=0``).  A keying that drifted
from ``SeedSequence`` would still be self-consistent, so comparing the
seeded path with itself could not catch it.
"""

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule

FEATURES, TEMPLATES = 32, 6
#: Spawn keys of the two per-request substreams (a fixed definition).
INPUT_KEY, LATCH_KEY = 0, 1


@pytest.fixture(scope="module")
def varied_amm():
    rng = np.random.default_rng(21)
    templates = rng.integers(0, 32, size=(FEATURES, TEMPLATES))
    return AssociativeMemoryModule.from_templates(
        templates, input_variation=0.05, dac_mismatch_sigma=0.03, seed=21
    )


def request_batch(size):
    rng = np.random.default_rng(size)
    codes = rng.integers(0, 32, size=(size, FEATURES))
    seeds = rng.integers(0, 2**63 - 1, size=size, dtype=np.int64)
    seeds[: min(size, 3)] = [2**32, 0, 2**63 - 1][: min(size, 3)]
    return codes, seeds


def substream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))


def reference_offsets(wta, seeds):
    sigma = wta.neurons[0].latch.offset_sigma_ohm
    assert sigma > 0.0
    return np.stack(
        [
            substream(seed, LATCH_KEY).normal(0.0, sigma, (wta.columns, wta.resolution_bits))
            for seed in seeds
        ]
    )


def reference_recall(amm, codes, seeds):
    """Per-row SeedSequence draws, masked-sum DAC conversion, same engine."""
    bank = amm.input_dacs
    masks = ((codes[:, :, None] >> np.arange(bank.bits)) & 1).astype(float)
    conductances = np.sum(masks * bank.bit_conductances[None, :, :], axis=2)
    for index, seed in enumerate(seeds):
        noise = substream(seed, INPUT_KEY).normal(0.0, amm.input_variation, FEATURES)
        conductances[index] = np.clip(conductances[index] * (1.0 + noise), 0.0, None)
    solution = amm.solver.batch_engine.solve_batch(
        conductances, include_parasitics=amm.include_parasitics
    )
    wta = amm.wta._convert_batch_fast(
        solution.column_currents,
        offsets=reference_offsets(amm.wta, seeds),
        commit_state=False,
    )
    return amm._package_batch(solution, wta)


FIELDS = (
    "winner_column", "winner", "dom_code", "accepted", "tie",
    "codes", "column_currents", "static_power",
)


def assert_bit_identical(result, reference):
    for field in FIELDS:
        np.testing.assert_array_equal(
            getattr(result, field), getattr(reference, field), err_msg=field
        )
    assert result.events == reference.events


@pytest.mark.parametrize("size", [1, 7, 64])
def test_convert_batch_seeded_matches_per_row_seed_sequences(varied_amm, size):
    codes, seeds = request_batch(size)
    currents = varied_amm.column_solution_batch(codes).column_currents
    wta = varied_amm.wta
    seeded = wta.convert_batch_seeded(currents, seeds)
    reference = wta._convert_batch_fast(
        currents, offsets=reference_offsets(wta, seeds), commit_state=False
    )
    for field in ("winner", "dom_code", "codes", "survivors", "tie"):
        np.testing.assert_array_equal(
            getattr(seeded, field), getattr(reference, field), err_msg=field
        )
    assert seeded.events == reference.events


@pytest.mark.parametrize("size", [1, 7, 64])
def test_recognise_batch_seeded_matches_per_row_seed_sequences(varied_amm, size):
    codes, seeds = request_batch(size)
    result = varied_amm.recognise_batch_seeded(codes, seeds)
    assert_bit_identical(result, reference_recall(varied_amm, codes, seeds))
