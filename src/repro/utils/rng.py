"""Random-number-generator management.

Every stochastic element in the reproduction (memristor write error,
transistor σVT mismatch, thermal fluctuations in the domain-wall neuron,
input-source variation, dataset synthesis) draws from a ``numpy`` Generator
so that complete experiments are reproducible from a single integer seed.

``ensure_rng`` accepts ``None`` (fresh entropy), an integer seed, or an
existing Generator and always returns a Generator, which keeps model
constructors terse::

    self._rng = ensure_rng(seed)

The seeded recall path draws every request's noise from its own
substream, ``default_rng(SeedSequence(entropy=seed, spawn_key=(key,)))``.
``substream_standard_normal`` derives those substreams for a whole batch
of seeds at once (``substream_state`` holds the vectorised seed hash),
bit-identically to building each ``SeedSequence`` in turn.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: The type accepted wherever a seed or generator may be supplied.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for the given seed specification.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, or an existing Generator
        (returned unchanged so that a caller can thread one generator
        through several sub-models).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def draw_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` non-negative int64 seeds drawn from ``rng``.

    numpy draws the values one after another, so ``count`` seeds drawn at
    once equal the same seeds drawn one at a time or in chunks of any
    size: a loop and a batch consume ``rng`` identically.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)


def spawn_children(rng: np.random.Generator, count: int) -> list:
    """Derive ``count`` statistically independent child generators.

    Used when a system (e.g. a Monte-Carlo study) needs one generator per
    trial whose streams must not interact even if the trials run in a
    different order.
    """
    return [np.random.default_rng(int(s)) for s in draw_seeds(rng, count)]


# ---------------------------------------------------------------------- #
# Per-request substreams
# ---------------------------------------------------------------------- #
# numpy's ``SeedSequence`` hashes its assembled entropy words into a pool
# of four uint32 words and expands the pool into output words with the
# constants below (``numpy/random/bit_generator.pyx``).  With a spawn key,
# the entropy of a non-negative int64 seed ``s`` is zero-padded to the pool
# size, so ``SeedSequence(entropy=s, spawn_key=(k,))`` always assembles the
# five words ``[lo32(s), hi32(s), 0, 0, k]``.  The hash is then fixed-shape
# uint32 arithmetic, run here on a ``(4, B)`` pool for B seeds at once.
# Each hash step's constants depend only on its position in the sequence,
# never on the seed, so the whole schedule is computed once at import.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
#: ``generate_state(4, np.uint64)`` is eight uint32 output words.
_STATE_WORDS = 8


def _hash_schedule(init: int, mult: int, count: int) -> list:
    """The ``(xor, multiply)`` constants of ``count`` successive hashmix steps."""
    schedule = []
    const = init
    for _ in range(count):
        following = (const * mult) & _MASK32
        schedule.append((const, following))
        const = following
    return schedule


def _columns(pairs) -> tuple:
    """``(xor, multiply)`` constants as ``(n, 1)`` uint32 columns."""
    xor, mul = zip(*pairs)
    return (
        np.array(xor, dtype=np.uint32)[:, None],
        np.array(mul, dtype=np.uint32)[:, None],
    )


def _cross_schedule(steps: list) -> list:
    """Per-round constants of the all-pairs mixing, as ``(4, 1)`` columns.

    Round ``src`` mixes pool word ``src`` into every other word.  Its
    ``src`` lane is a placeholder: the round leaves that word unchanged.
    """
    steps = iter(steps)
    return [
        _columns([(0, 0) if dst == src else next(steps) for dst in range(_POOL_SIZE)])
        for src in range(_POOL_SIZE)
    ]


# Hashmix steps of the entropy mixing, in numpy's order: fill the pool from
# the first four entropy words, mix every pool word into every other one
# (source-major), then mix the spawn key into each pool word.
_SCHEDULE_A = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + 1))
_FILL = _columns(_SCHEDULE_A[:_POOL_SIZE])
_CROSS = _cross_schedule(_SCHEDULE_A[_POOL_SIZE:-_POOL_SIZE])
_KEY_SCHEDULE = _SCHEDULE_A[-_POOL_SIZE:]
_OUTPUT = _columns(_hash_schedule(_INIT_B, _MULT_B, _STATE_WORDS))


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of every word (broadcast against the constants)."""
    mixed = words ^ xor
    mixed *= mul
    mixed ^= mixed >> _XSHIFT
    return mixed


def _mix(pool: np.ndarray, scaled_hash: np.ndarray) -> None:
    """numpy's ``mix(pool, hash)``, in place; ``scaled_hash`` is ``MIX_MULT_R * hash``."""
    pool *= np.uint32(_MIX_MULT_L)
    pool -= scaled_hash
    pool ^= pool >> _XSHIFT


@lru_cache(maxsize=16)
def _hashed_key(key: int) -> np.ndarray:
    """The spawn-key word's mixing terms, ``MIX_MULT_R * hashmix(key)``, per pool word.

    Cached per key (the recall path uses two); the array is read-only
    because every caller shares it.
    """
    if not 0 <= key <= _MASK32:
        raise ValueError(f"spawn key must be in [0, 2**32 - 1], got {key}")
    terms = []
    for xor, mul in _KEY_SCHEDULE:
        value = ((key ^ xor) * mul) & _MASK32
        value ^= value >> 16
        terms.append((_MIX_MULT_R * value) & _MASK32)
    column = np.array(terms, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def substream_state(seeds: np.ndarray, key: int) -> np.ndarray:
    """PCG64 seeding words of every request substream, shape ``(B, 4)``.

    Row ``i`` equals
    ``SeedSequence(entropy=seeds[i], spawn_key=(key,)).generate_state(4, np.uint64)``,
    computed for the whole batch in uint32 array arithmetic.  ``seeds``
    is a 1-D array of non-negative int64 seeds.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1:
        raise ValueError(f"seeds must be 1-D, got shape {seeds.shape}")
    if np.any(seeds < 0):
        raise ValueError("seeds must be non-negative")
    key_terms = _hashed_key(int(key))
    values = seeds.astype(np.uint64)
    entropy = np.zeros((_POOL_SIZE, seeds.shape[0]), dtype=np.uint32)
    entropy[0] = values & np.uint64(_MASK32)
    entropy[1] = values >> np.uint64(32)
    pool = _hashmix(entropy, *_FILL)
    for src, (xor, mul) in enumerate(_CROSS):
        source = pool[src].copy()
        scaled = _hashmix(source, xor, mul)
        scaled *= np.uint32(_MIX_MULT_R)
        _mix(pool, scaled)
        pool[src] = source
    _mix(pool, key_terms)
    state = _hashmix(np.concatenate((pool, pool)), *_OUTPUT)
    # numpy reads the eight uint32 words as four little-endian uint64 pairs.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedingWords(ISeedSequence):
    """Seed material for one ``PCG64``: words already generated."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself; the identity test spares np.dtype().
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's generate_state(4, np.uint64) is held")
        return self._words


def substream_standard_normal(
    seeds: np.ndarray, key: int, shape: Sequence[int]
) -> np.ndarray:
    """Unit normal draws of every request substream, shape ``(B, *shape)``.

    Row ``i`` is bit-identical to
    ``default_rng(SeedSequence(entropy=seeds[i], spawn_key=(key,))).standard_normal(shape)``.
    The seed hash runs on the whole batch (:func:`substream_state`); only
    the generator construction and the draws remain per row.  Scaling the
    result by ``sigma`` reproduces ``normal(0.0, sigma, shape)`` bit for
    bit, because numpy computes that as ``0.0 + sigma * z``.
    """
    words = substream_state(seeds, key)
    out = np.empty((words.shape[0], *shape))
    for row, state in zip(out, words):
        np.random.Generator(np.random.PCG64(_SeedingWords(state))).standard_normal(out=row)
    return out
