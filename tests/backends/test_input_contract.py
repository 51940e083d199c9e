"""One input contract across every registered backend.

Whatever executes a batch, the caller sees the same validation: a code
batch of the wrong shape, a seeds vector of the wrong length, an empty
recall and a non-integral code or seed raise ``ValueError`` (never a
silent truncation); integral floats recall like the integers they hold.
The fleet runs in both of its adopted-agent shapes against two
in-process worker agents: ``remote`` is static membership with no
control socket (``--backend fleet --workers host:port,...``), ``fleet``
also serves its control socket.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_names, create_backend


@pytest.fixture(params=[*backend_names(), "remote"])
def any_backend(request, backend_amm):
    name = request.param
    options = {"workers": 2, "min_shard_size": 4}
    servers = []
    if name in ("remote", "fleet"):
        from repro.backends import WorkerServer

        servers = [WorkerServer().start(), WorkerServer().start()]
        options.update(
            worker_addresses=[server.address for server in servers],
            heartbeat_interval=0.1,
            io_timeout=20.0,
        )
    if name == "fleet":
        options["control"] = ("127.0.0.1", 0)
    backend = create_backend(
        "fleet" if name == "remote" else name, backend_amm, **options
    ).prepare()
    if name != "serial":
        assert (backend.control_address is None) == (name == "remote")
    yield backend
    backend.close()
    for server in servers:
        server.close()


def test_misshaped_codes_rejected(any_backend, request_codes):
    seeds = np.arange(request_codes.shape[0], dtype=np.int64)
    with pytest.raises(ValueError):
        any_backend.recall_batch_seeded(request_codes[:, :-1], seeds)
    with pytest.raises(ValueError):
        any_backend.recall_batch_seeded(request_codes[0], seeds[:1])


def test_seeds_length_mismatch_rejected(any_backend, request_codes):
    seeds = np.arange(request_codes.shape[0] - 1, dtype=np.int64)
    with pytest.raises(ValueError):
        any_backend.recall_batch_seeded(request_codes, seeds)


def test_empty_recall_rejected(any_backend, backend_amm):
    codes = np.empty((0, backend_amm.crossbar.rows), dtype=np.int64)
    with pytest.raises(ValueError):
        any_backend.recall_batch_seeded(codes, np.empty(0, dtype=np.int64))


def test_non_integral_codes_rejected(any_backend, request_codes):
    seeds = np.arange(request_codes.shape[0], dtype=np.int64)
    with pytest.raises(ValueError, match="integers"):
        any_backend.recall_batch_seeded(request_codes + 0.7, seeds)


def test_non_integral_seeds_rejected(any_backend, request_codes):
    seeds = np.arange(request_codes.shape[0]) + 0.5
    with pytest.raises(ValueError, match="integers"):
        any_backend.recall_batch_seeded(request_codes, seeds)


def test_integral_floats_recall_like_integers(any_backend, request_codes):
    seeds = np.arange(request_codes.shape[0], dtype=np.int64)
    exact = any_backend.recall_batch_seeded(request_codes, seeds)
    floats = any_backend.recall_batch_seeded(
        request_codes.astype(float), seeds.astype(float)
    )
    np.testing.assert_array_equal(floats.winner, exact.winner)
    np.testing.assert_array_equal(floats.codes, exact.codes)
    # Shard boundaries may differ between the two calls, which can move
    # the last ulp of a BLAS product.
    np.testing.assert_allclose(floats.column_currents, exact.column_currents, rtol=1e-12)
