"""The seeded recall path's per-request noise, pinned to its definition.

Sample ``i`` of ``recognise_batch_seeded`` draws its input variation from
``default_rng(SeedSequence(entropy=seeds[i], spawn_key=(0,)))`` and its
latch offsets from the same seed with ``spawn_key=(1,)``.  The tests
rebuild both draws here, one ``SeedSequence`` per row, and require every
output field to match bit for bit (``rtol=0``).  A keying that drifted
from ``SeedSequence`` would still be self-consistent, so comparing the
seeded path with itself could not catch it.

On the reference read stack no latch offset ``standard_normal`` can return
flips a sense decision, so the conversion draws none; the last tests pin
that margin guard against the same per-row references.
"""

import math

import numpy as np
import pytest

from repro.core import wta as wta_module
from repro.core.amm import AssociativeMemoryModule
from repro.core.config import default_parameters
from repro.core.wta import Z_MAX, SpinCmosWta
from repro.devices.latch import DynamicCmosLatch
from repro.utils.rng import substream_standard_normal

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
    sigma = wta.latch.offset_sigma_ohm
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
        solution.column_currents, offsets=reference_offsets(amm.wta, seeds)
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
    np.testing.assert_array_equal(result.events, reference.events)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_convert_batch_seeded_matches_per_row_seed_sequences(varied_amm, size):
    codes, seeds = request_batch(size)
    currents = varied_amm.column_solution_batch(codes).column_currents
    wta = varied_amm.wta
    seeded = wta.convert_batch_seeded(currents, seeds)
    reference = wta._convert_batch_fast(currents, offsets=reference_offsets(wta, seeds))
    for field in ("winner", "dom_code", "codes", "survivors", "tie"):
        np.testing.assert_array_equal(
            getattr(seeded, field), getattr(reference, field), err_msg=field
        )
    np.testing.assert_array_equal(seeded.events, reference.events)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_recognise_batch_seeded_matches_per_row_seed_sequences(varied_amm, size):
    codes, seeds = request_batch(size)
    result = varied_amm.recognise_batch_seeded(codes, seeds)
    assert_bit_identical(result, reference_recall(varied_amm, codes, seeds))


# --------------------------------------------------------------------------- #
# The latch-offset margin guard
# --------------------------------------------------------------------------- #
#: numpy's ziggurat tail start ``r`` (``ziggurat_nor_r``).
ZIGGURAT_R = 3.6541528853610088
#: A seed whose latch offsets flip a decision of the 5σ WTA on row 0 of
#: ``request_batch(64)`` (found by search; the draw is a pure function of it).
FLIP_SEED = 160712


def reference_wta(latch=None):
    """A WTA with the reference design's read stack (``default_parameters()``)."""
    parameters = default_parameters()
    return SpinCmosWta(
        columns=TEMPLATES,
        resolution_bits=parameters.wta_resolution_bits,
        full_scale_current=parameters.wta_full_scale_current,
        dwn_config=parameters.dwn_config(),
        mtj=parameters.mtj(),
        latch=latch,
        seed=5,
    )


def counting_draws(monkeypatch):
    calls = []

    def draw(*args):
        calls.append(args)
        return substream_standard_normal(*args)

    monkeypatch.setattr(wta_module, "substream_standard_normal", draw)
    return calls


def assert_same_conversion(result, reference):
    for field in ("winner", "dom_code", "codes", "survivors", "tie"):
        np.testing.assert_array_equal(
            getattr(result, field), getattr(reference, field), err_msg=field
        )
    np.testing.assert_array_equal(result.events, reference.events)


def test_reference_design_draws_no_latch_offsets(varied_amm, monkeypatch):
    def refuse(*args):
        raise AssertionError("the reference design drew latch offsets")

    monkeypatch.setattr(wta_module, "substream_standard_normal", refuse)
    codes, seeds = request_batch(64)
    assert {0, 2**32, 2**63 - 1} <= set(seeds.tolist())
    currents = varied_amm.column_solution_batch(codes).column_currents
    for wta in (reference_wta(), varied_amm.wta):
        seeded = wta.convert_batch_seeded(currents, seeds)
        reference = wta._convert_batch_fast(currents, offsets=reference_offsets(wta, seeds))
        assert_same_conversion(seeded, reference)


def test_low_margin_design_draws_and_offsets_flip_decisions(varied_amm, monkeypatch):
    # 1 kΩ sigma against the 5 kΩ read margin: 5σ, inside numpy's range.
    wta = reference_wta(DynamicCmosLatch(offset_sigma_ohm=1000.0))
    codes, seeds = request_batch(64)
    currents = varied_amm.column_solution_batch(codes).column_currents
    currents = np.vstack([currents, currents[:1]])
    seeds = np.append(seeds, FLIP_SEED)
    calls = counting_draws(monkeypatch)
    seeded = wta.convert_batch_seeded(currents, seeds)
    assert len(calls) == 1
    offsets = reference_offsets(wta, seeds)
    assert_same_conversion(seeded, wta._convert_batch_fast(currents, offsets=offsets))
    unperturbed = wta._convert_batch_fast(currents, offsets=np.zeros_like(offsets))
    assert (seeded.codes != unperturbed.codes).any(axis=1)[-1]


def bound_gap(mtj, sigma):
    return mtj.resistance(True) + Z_MAX * sigma - mtj.reference_resistance()


def sigma_where(mtj, accept, start):
    """Step ``start`` an ulp at a time towards the first sigma ``accept``-ed."""
    sigma = start
    for _ in range(256):
        gap = bound_gap(mtj, sigma)
        if accept(gap):
            return sigma
        sigma = np.nextafter(sigma, 0.0 if gap >= 0.0 else np.inf)
    raise AssertionError("no such sigma within 256 ulps")


def test_margin_exactly_at_the_bound_draws(varied_amm, monkeypatch):
    # The bound lands exactly on r_reference at ``sigma``; just below it, the
    # largest sigma whose bound stays strictly under the reference.
    mtj = default_parameters().mtj()
    start = (mtj.reference_resistance() - mtj.resistance(True)) / Z_MAX
    sigma = sigma_where(mtj, lambda gap: gap == 0.0, start)
    under = sigma_where(mtj, lambda gap: gap < 0.0, sigma)
    codes, seeds = request_batch(7)
    currents = varied_amm.column_solution_batch(codes).column_currents
    at_bound = reference_wta(DynamicCmosLatch(offset_sigma_ohm=sigma))
    below = reference_wta(DynamicCmosLatch(offset_sigma_ohm=under))
    calls = counting_draws(monkeypatch)
    below.convert_batch_seeded(currents, seeds)
    assert calls == []
    seeded = at_bound.convert_batch_seeded(currents, seeds)
    assert len(calls) == 1
    assert_same_conversion(
        seeded,
        at_bound._convert_batch_fast(currents, offsets=reference_offsets(at_bound, seeds)),
    )


def test_z_max_bounds_numpy_standard_normal():
    assert Z_MAX == ZIGGURAT_R + 53 * math.log(2) / ZIGGURAT_R
    assert 13.7 < Z_MAX < 13.71
    # A sanity check, not a proof: the bound holds over a million draws.
    draws = np.random.Generator(np.random.PCG64(2013)).standard_normal(1_000_000)
    assert np.abs(draws).max() < Z_MAX
