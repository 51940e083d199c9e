"""Known-bad fixture for RNG001: argless bit-generator and SeedSequence
constructions reachable from the seeded recall root. Never executed —
lint fodder only."""

import numpy as np
from numpy.random import PCG64, SeedSequence


def _fresh_bitgen():
    # Argless PCG64() seeds itself from OS entropy.
    return np.random.Generator(np.random.PCG64())


def _fresh_sequence():
    # Argless SeedSequence() draws OS entropy too, under a from-import.
    return SeedSequence().generate_state(4)


def _fresh_philox():
    return np.random.Philox()


def _seeded_bitgen(words):
    # Every construction given its entropy — allowed.
    return np.random.Generator(PCG64(words)), np.random.SFC64(SeedSequence(7))


def convert_batch_seeded(currents, seeds):
    rng, _ = _seeded_bitgen(seeds)
    return [rng.normal() + _fresh_bitgen().normal() for _ in currents], (
        _fresh_sequence(),
        _fresh_philox(),
    )
