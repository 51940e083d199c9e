"""The threaded load driver, ``run_load``, in each of its transports.

One loop drives buffered JSON, streaming NDJSON and the binary endpoint;
each mode must deliver every offered row against a live server, and a
transport failure must count as an error rather than stop a thread.
"""

from __future__ import annotations

import socket

import pytest

from repro.serving import RecognitionService, run_load, start_async_server, stop_async_server

REQUESTS = 12
IMAGES_PER_REQUEST = 3

MODES = {
    "json": {},
    "stream": {"stream": True},
    "binary": {"binary": True},
}


@pytest.fixture(scope="module")
def live_server(serving_amm):
    service = RecognitionService(serving_amm, max_batch_size=16, max_wait=1e-3)
    server = start_async_server(service, port=0, binary_port=0)
    yield server
    stop_async_server(server)


@pytest.mark.parametrize("mode", list(MODES))
def test_every_mode_serves_every_row(live_server, request_codes, mode):
    options = MODES[mode]
    port = live_server.binary_port if options.get("binary") else live_server.port
    report = run_load(
        "127.0.0.1",
        port,
        request_codes,
        requests=REQUESTS,
        concurrency=3,
        images_per_request=IMAGES_PER_REQUEST,
        priorities=[0, 5],
        **options,
    )
    assert report.images == REQUESTS * IMAGES_PER_REQUEST
    assert (report.errors, report.rejected, report.quota_rejected, report.row_errors) == (
        0,
        0,
        0,
        0,
    )
    assert len(report.latencies) == REQUESTS
    assert sorted(report.latencies_by_priority) == [0, 5]
    assert report.stream == bool(options.get("stream"))


@pytest.mark.parametrize("mode", list(MODES))
def test_unreachable_server_counts_errors(request_codes, mode):
    # Bind-then-close: a port nothing listens on, never hard-coded.
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    report = run_load(
        "127.0.0.1", port, request_codes, requests=4, concurrency=2, timeout=2.0,
        **MODES[mode],
    )
    assert report.errors == 4
    assert report.images == 0 and not report.latencies
