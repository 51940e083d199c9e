"""The process-wide cache of Woodbury operators under ``_build_woodbury``.

An engine whose static network ``A0`` is bit-identical to one built
before in the process adopts that build's read-only operators instead of
running the Schur sweep again.  Pinned here: a hit equals a fresh build,
any change to one conductance misses, refused networks are never cached,
cached arrays are read-only, the byte budget evicts least-recently-used
entries, and concurrent builds of one network agree.
"""

import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro.crossbar import batched
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchedCrossbarEngine
from repro.crossbar.mna import static_network
from repro.crossbar.parasitics import WireParasitics
from repro.crossbar.programming import TemplateProgrammer
from repro.devices.memristor import MemristorModel

TERMINATION = 50.0


def make_crossbar(rows=6, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    programmer = TemplateProgrammer(
        memristor=MemristorModel(r_min_ohm=1e3, r_max_ohm=32e3, write_accuracy=0.03, seed=seed)
    )
    return ResistiveCrossbar.from_programmed(
        programmer.program(rng.integers(0, 32, size=(rows, cols))),
        parasitics=WireParasitics(cell_pitch_um=0.1),
    )


def prepared(crossbar):
    return BatchedCrossbarEngine(crossbar, 30e-3, TERMINATION).prepare()


@pytest.fixture(autouse=True)
def empty_cache():
    batched._clear_operator_cache()
    yield
    batched._clear_operator_cache()


@pytest.fixture
def sweeps(monkeypatch):
    """Counts the Schur sweeps run (one per operator build that misses)."""
    calls = []
    sweep = batched.port_schur_complement

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(batched, "port_schur_complement", counting)
    return calls


def test_a_hit_equals_a_build_after_clearing(sweeps):
    crossbar = make_crossbar()
    first = prepared(crossbar)
    hit = prepared(crossbar)
    assert len(sweeps) == 1
    assert hit._operators is first._operators
    batched._clear_operator_cache()
    rebuilt = prepared(crossbar)
    assert len(sweeps) == 2
    assert rebuilt._operators is not hit._operators
    assert_same_operators(rebuilt, hit)


def assert_same_operators(engine, other):
    for mine, theirs in zip(engine._operators, other._operators):
        assert np.array_equal(mine, theirs)


def test_a_one_ulp_change_to_one_conductance_misses(sweeps):
    crossbar = make_crossbar()
    prepared(crossbar)
    conductances = crossbar.conductances.copy()
    conductances[2, 1] = np.nextafter(conductances[2, 1], np.inf)
    nudged = ResistiveCrossbar(conductances, crossbar.dummy_conductances, crossbar.parasitics)
    prepared(nudged)
    assert len(sweeps) == 2
    assert len(batched._OPERATORS) == 2


def test_a_changed_termination_misses(sweeps):
    crossbar = make_crossbar()
    prepared(crossbar)
    BatchedCrossbarEngine(crossbar, 30e-3, 2 * TERMINATION).prepare()
    assert len(sweeps) == 2


def test_delta_v_is_not_part_of_the_network(sweeps):
    """The supply voltage only scales the drive: engines of one array at two
    ΔV share one build."""
    crossbar = make_crossbar()
    prepared(crossbar)
    other = BatchedCrossbarEngine(crossbar, 2e-3, TERMINATION).prepare()
    assert len(sweeps) == 1
    assert other.delta_v == 2e-3


def _one_way(network):
    extra = sparse.csc_matrix(([0.5 * network[0, 0]], ([0], [4])), shape=network.shape)
    return network + extra


def _positive_off_diagonal(network):
    g = -1e-3  # a negative conductance inside row bar 1
    extra = sparse.csc_matrix(
        ([g, g, -g, -g], ([5, 7, 5, 7], [5, 7, 7, 5])), shape=network.shape
    )
    return network + extra


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_one_way, "not symmetric"),
        (lambda network: -network, "not positive definite"),
        (_positive_off_diagonal, "not a conductance network"),
    ],
    ids=["non-symmetric", "indefinite", "positive-off-diagonal"],
)
def test_a_refused_network_is_never_stored(monkeypatch, corrupt, message):
    crossbar = make_crossbar()
    network = corrupt(static_network(crossbar, TERMINATION))
    monkeypatch.setattr(batched, "static_network", lambda *args: network)
    for _ in range(2):
        engine = BatchedCrossbarEngine(crossbar, 30e-3, TERMINATION)
        with pytest.raises(ValueError, match=message):
            engine.prepare()
        assert not engine.prepared
        assert len(batched._OPERATORS) == 0


def test_cached_arrays_reject_writes():
    engine = prepared(make_crossbar())
    for array in engine._operators.arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


def _operators(nbytes):
    half = np.zeros(nbytes // 16)
    return batched._Operators(
        r_matrix=half,
        shift=1.0,
        top_gap=1.0,
        top_vector=np.zeros(0),
        r_max=1.0,
        z_outputs=half.copy(),
    )


def test_the_byte_budget_evicts_least_recently_used_entries():
    cache = batched._OperatorCache(budget=3 * 1024)
    for key in (b"a", b"b", b"c"):
        cache.put(key, _operators(1024))
    assert cache.get(b"a") is not None  # "b" is now the least recently used
    cache.put(b"d", _operators(1024))
    assert cache.get(b"b") is None
    assert all(cache.get(key) is not None for key in (b"a", b"c", b"d"))
    cache.put(b"e", _operators(2048))
    assert len(cache) == 2
    assert cache.get(b"e") is not None and cache.get(b"d") is not None


def test_an_entry_larger_than_the_budget_is_not_cached():
    cache = batched._OperatorCache(budget=1024)
    operators = _operators(2048)
    assert cache.put(b"big", operators) is operators
    assert len(cache) == 0
    assert not operators.r_matrix.flags.writeable


def run_threads(target, arguments, timeout=60.0):
    """Run ``target`` once per argument tuple in its own thread, started
    together, with a shortened switch interval; return the exceptions."""
    barrier = threading.Barrier(len(arguments), timeout=timeout)
    errors = []

    def run(*args):
        try:
            barrier.wait()
            target(*args)
        except Exception as error:  # surfaced by the callers' assertions
            errors.append(error)

    threads = [threading.Thread(target=run, args=args) for args in arguments]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_concurrent_builds_of_one_network_agree():
    crossbar = make_crossbar(rows=24, cols=8)
    engines = [BatchedCrossbarEngine(crossbar, 30e-3, TERMINATION) for _ in range(4)]
    assert run_threads(BatchedCrossbarEngine.prepare, [(engine,) for engine in engines]) == []
    first = engines[0]
    for engine in engines[1:]:
        assert_same_operators(engine, first)
    assert len(batched._OPERATORS) == 1


def test_concurrent_stores_keep_the_byte_count():
    """Threads storing and reading distinct entries through a small budget:
    a lost update of the byte count would leave it off the entries' sum."""
    cache = batched._OperatorCache(budget=8 * 1024)

    def churn(thread):
        for index in range(200):
            key = f"{thread}-{index}".encode()
            cache.put(key, _operators(1024))
            cache.get(f"{thread}-{index // 2}".encode())

    assert run_threads(churn, [(thread,) for thread in range(4)]) == []
    assert cache._bytes == sum(entry.nbytes for entry in cache._entries.values())
    assert cache._bytes <= cache.budget
    assert len(cache) == 8
