"""Shared fixtures for the serving-subsystem tests.

All fixtures use the reduced 32x6 module geometry (the same scale as the
batched-equivalence tests) so the full serving suite — including booting
real HTTP servers on ephemeral ports — runs in seconds.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule

FEATURES = 32
TEMPLATES = 6
SEED = 3


def build_amm(**kwargs) -> AssociativeMemoryModule:
    """A fresh reduced module; identical for identical keyword arguments."""
    rng = np.random.default_rng(SEED)
    templates = rng.integers(0, 32, size=(FEATURES, TEMPLATES))
    return AssociativeMemoryModule.from_templates(templates, seed=SEED, **kwargs)


@pytest.fixture(scope="session")
def serving_amm() -> AssociativeMemoryModule:
    """Parasitic-path module with input variation: both per-request noise
    substreams (input noise, latch offsets) are exercised."""
    return build_amm(include_parasitics=True, input_variation=0.05)


@pytest.fixture(scope="session")
def request_codes() -> np.ndarray:
    rng = np.random.default_rng(SEED + 1000)
    return rng.integers(0, 32, size=(24, FEATURES))


@pytest.fixture(scope="session")
def request_seeds(request_codes) -> np.ndarray:
    return np.arange(request_codes.shape[0], dtype=np.int64) + 500


@pytest.fixture()
def free_port() -> int:
    """An OS-assigned TCP port that was free a moment ago.

    The port-collision rule of this suite: servers bind ``port=0`` and
    read the ephemeral port back wherever possible (``start_async_server``
    supports it; never hard-code a port or retry over a fixed range).
    This fixture covers the remaining case — an API that must be handed
    a concrete port number up front.  The OS hands out ascending
    ephemeral ports, so the just-released port stays free for the
    immediate re-bind in practice; anything able to take ``port=0``
    directly should still prefer it.
    """
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture()
def recall_gate(monkeypatch):
    """Gate backend recalls and record the seeds that actually reach the
    engine, in dispatch order.

    Returns ``(gate, recalled)``: nothing is solved until ``gate.set()``,
    after which ``recalled`` accumulates the per-request seeds in the
    order the dispatchers solved them — the instrument behind the
    priority-ordering and cancellation-leak tests.
    """
    from repro.backends.serial import SerialBackend

    gate = threading.Event()
    recalled: list = []
    original = SerialBackend.recall_batch_seeded

    def wrapped(self, codes_batch, request_seeds):
        gate.wait(timeout=20.0)
        recalled.extend(int(seed) for seed in request_seeds)
        return original(self, codes_batch, request_seeds)

    monkeypatch.setattr(SerialBackend, "recall_batch_seeded", wrapped)
    yield gate, recalled
    gate.set()
