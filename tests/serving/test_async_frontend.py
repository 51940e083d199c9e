"""Semantics of the asyncio front end (`repro.serving.aio`) over JSON.

Results match the engine bit for bit, and the error taxonomy
(400/404/408/411/429/503/504), priority, quota, deadline, body-limit and
streaming semantics hold from the outside: every test drives real
sockets against a real server.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import numpy as np
import pytest

import repro.serving.aio as aio_module
from repro.serving import (
    QuotaConfig,
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)
from tests.serving.test_regressions import wait_for


def make_service(serving_amm, **overrides):
    settings = dict(max_batch_size=8, max_wait=1e-3)
    settings.update(overrides)
    return RecognitionService(serving_amm, **settings)


@pytest.fixture()
def async_server(serving_amm):
    service = make_service(serving_amm)
    server = start_async_server(service, port=0, binary_port=None)
    yield server
    if not service.closed:
        stop_async_server(server)


def raw_post(port, path, body: bytes, content_type="application/json"):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestJsonParity:
    def test_single_round_trip_matches_engine(
        self, async_server, serving_amm, request_codes
    ):
        with RecognitionClient("127.0.0.1", async_server.port) as client:
            result = client.recognise(request_codes[0], seed=7)
        reference = serving_amm.recognise_batch_seeded(request_codes[:1], [7])[0]
        assert result["winner"] == reference.winner
        assert result["winner_column"] == reference.winner_column
        assert result["dom_code"] == reference.dom_code
        assert result["accepted"] == reference.accepted
        assert result["tie"] == reference.tie
        assert result["static_power_w"] == pytest.approx(
            reference.static_power, rel=1e-9
        )

    def test_healthz_and_stats(self, async_server):
        with RecognitionClient("127.0.0.1", async_server.port) as client:
            health = client.healthz()
            stats = client.stats()
        assert health["status"] == "ok"
        assert stats["frontend"]["kind"] == "async"
        assert stats["frontend"]["connections_total"] >= 1
        json.dumps(stats)  # snapshot must stay JSON-serialisable

    def test_keep_alive_reuses_one_connection(self, async_server, request_codes):
        with RecognitionClient("127.0.0.1", async_server.port) as client:
            for index in range(5):
                client.recognise(request_codes[index], seed=index)
            stats = client.stats()
        assert stats["frontend"]["connections_total"] == 1

    def test_many_concurrent_connections(self, async_server, request_codes):
        """One event loop, many simultaneous keep-alive clients."""
        errors: list = []

        def hit(index):
            try:
                with RecognitionClient("127.0.0.1", async_server.port) as client:
                    result = client.recognise(
                        request_codes[index % len(request_codes)], seed=index
                    )
                    assert "winner" in result
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        with RecognitionClient("127.0.0.1", async_server.port) as client:
            assert client.stats()["frontend"]["connections_total"] >= 32


class TestErrorTaxonomy:
    def test_unknown_path_404(self, async_server):
        status, payload = raw_post(async_server.port, "/nope", b"{}")
        assert status == 404 and "error" in payload

    def test_malformed_json_400(self, async_server):
        status, payload = raw_post(async_server.port, "/recognise", b"{not json")
        assert status == 400 and "error" in payload

    def test_wrong_shape_400(self, async_server):
        body = json.dumps({"codes": [1, 2, 3]}).encode()
        status, payload = raw_post(async_server.port, "/recognise", body)
        assert status == 400 and "error" in payload

    def test_missing_body_411(self, async_server):
        status, payload = raw_post(async_server.port, "/recognise", b"")
        assert status == 411
        assert payload["reason"] == "length_required"

    def test_overflowing_seed_400(self, async_server, request_codes):
        body = json.dumps(
            {"codes": request_codes[0].tolist(), "seed": 2**63}
        ).encode()
        status, payload = raw_post(async_server.port, "/recognise", body)
        assert status == 400 and "error" in payload

    def test_unserved_request_maps_to_504(
        self, async_server, request_codes, recall_gate, monkeypatch
    ):
        gate, _ = recall_gate
        monkeypatch.setattr(aio_module, "DEFAULT_REQUEST_TIMEOUT", 0.05)
        try:
            body = json.dumps({"codes": request_codes[0].tolist()}).encode()
            status, payload = raw_post(async_server.port, "/recognise", body)
            assert status == 504
            assert payload["reason"] == "deadline"
        finally:
            gate.set()

    def test_closed_service_maps_to_503(self, async_server, request_codes):
        async_server.service.close()
        body = json.dumps({"codes": request_codes[0].tolist()}).encode()
        status, payload = raw_post(async_server.port, "/recognise", body)
        assert status == 503
        stop_async_server(async_server, close_service=False)

    def test_quota_denial_maps_to_429(self, serving_amm, request_codes):
        service = make_service(
            serving_amm, quota=QuotaConfig(rate=1.0, burst=2, max_inflight=64)
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="greedy"
            ) as client:
                with pytest.raises(ServerError) as excinfo:
                    for _ in range(4):
                        client.recognise(request_codes[0], seed=1)
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "quota"
        finally:
            stop_async_server(server)

    def test_priority_overtakes_queued_lows_over_http(
        self, serving_amm, request_codes, recall_gate
    ):
        """The admission-priority contract holds through the async front
        end: a high-priority HTTP request leaves the queue before every
        already-queued low."""
        gate, recalled = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            lows = [
                service.submit(request_codes[4 + index], seed=index + 1, priority=0)
                for index in range(3)
            ]

            outcome: dict = {}

            def post_high():
                with RecognitionClient("127.0.0.1", server.port) as client:
                    outcome["result"] = client.recognise(
                        request_codes[7], seed=9, priority=9
                    )

            poster = threading.Thread(target=post_high)
            poster.start()
            # The gate only opens once the HTTP request is in the queue
            # (3 blockers + 3 lows + 1 high submitted).
            assert wait_for(lambda: service.metrics.submitted == 7)
            gate.set()
            poster.join(timeout=20.0)
            for future in blockers + lows:
                future.result(timeout=20.0)
            assert "winner" in outcome["result"]
            assert recalled.index(9) < min(
                recalled.index(seed) for seed in (1, 2, 3)
            )
        finally:
            gate.set()
            stop_async_server(server)


class TestBodyLimits:
    """Content-Length enforcement and slow-body deadlines."""

    def test_oversized_declaration_rejected_before_read(self, async_server):
        from repro.serving import protocol

        connection = http.client.HTTPConnection(
            "127.0.0.1", async_server.port, timeout=10.0
        )
        try:
            connection.putrequest("POST", "/recognise")
            connection.putheader("Content-Type", "application/json")
            connection.putheader(
                "Content-Length", str(protocol.MAX_BODY_BYTES + 1)
            )
            connection.endheaders()
            connection.send(b"{}")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "exceeds" in payload["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_chunked_body_rejected_411(self, async_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", async_server.port, timeout=10.0
        )
        try:
            connection.putrequest("POST", "/recognise")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            connection.send(b"2\r\n{}\r\n0\r\n\r\n")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 411
            assert payload["reason"] == "length_required"
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_trickling_client_hits_read_deadline(
        self, async_server, monkeypatch
    ):
        """A client that declares a body and then stalls cannot hold a
        handler past ``BODY_READ_TIMEOUT``: the server answers 408 and
        drops the connection."""
        monkeypatch.setattr(aio_module, "BODY_READ_TIMEOUT", 0.3)
        with socket.create_connection(
            ("127.0.0.1", async_server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /recognise HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 4096\r\n"
                b"\r\n"
                b'{"codes'  # a trickle, then silence
            )
            sock.settimeout(10.0)
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
            head, _, rest = raw.partition(b"\r\n\r\n")
            assert b" 408 " in head.split(b"\r\n", 1)[0]
            assert b"connection: close" in head.lower()
            while True:  # server must actively close, not linger
                chunk = sock.recv(4096)
                if not chunk:
                    break
                rest += chunk
            payload = json.loads(rest)
            assert payload["reason"] == "slow_body"


class TestStreamingSemantics:
    def test_per_row_deadline_errors_in_stream(
        self, serving_amm, request_codes, monkeypatch
    ):
        """Rows that miss their dispatch deadline stream back as per-row
        error lines; the summary tallies them."""
        import time as time_module

        from repro.backends.serial import SerialBackend

        original = SerialBackend.recall_batch_seeded

        def slowed(self, codes_batch, request_seeds):
            time_module.sleep(0.2)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", slowed)
        service = make_service(serving_amm, max_batch_size=1, workers=1)
        server = start_async_server(service, port=0, binary_port=None)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                lines = list(
                    client.recognise_stream(
                        request_codes[:6],
                        seeds=list(range(6)),
                        timeout_ms=50.0,
                    )
                )
        finally:
            stop_async_server(server)
        summary = lines[-1]
        assert summary["done"] is True and summary["count"] == 6
        assert summary["failed"] >= 1
        assert summary["ok"] + summary["failed"] == 6
        failures = [line for line in lines[:-1] if "error" in line]
        assert len(failures) == summary["failed"]
        assert all(line["error"]["reason"] == "deadline" for line in failures)

    def test_disconnect_mid_stream_cancels_queued_rows(
        self, serving_amm, request_codes, monkeypatch
    ):
        """The abandonment contract holds on the async path: a client
        that walks away mid-NDJSON gets its queued rows cancelled and
        its quota slots released."""
        import time as time_module

        from repro.backends.serial import SerialBackend

        recalled: list = []
        original = SerialBackend.recall_batch_seeded

        def slowed(self, codes_batch, request_seeds):
            time_module.sleep(0.15)
            recalled.extend(int(seed) for seed in request_seeds)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", slowed)
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=256),
        )
        server = start_async_server(service, port=0, binary_port=None)
        codes = np.tile(request_codes, (2, 1))[:24]
        seeds = list(range(1000, 1024))
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="abandoner"
            ) as client:
                events = client.recognise_stream(codes, seeds=seeds)
                first = next(events)
                assert "result" in first
                events.close()
            assert wait_for(
                lambda: service.metrics.cancelled > 0, timeout=20.0
            ), "no queued rows were cancelled after the disconnect"
            assert wait_for(
                lambda: service.quotas.inflight("abandoner") == 0, timeout=20.0
            ), "abandoned stream leaked in-flight quota slots"
            assert set(seeds) - set(recalled), (
                "every row was solved despite the client leaving"
            )
        finally:
            stop_async_server(server)


def test_clean_shutdown_and_port_release(serving_amm, request_codes):
    service = make_service(serving_amm, max_batch_size=4, max_wait=0.0)
    server = start_async_server(service, port=0, binary_port=0)
    port = server.port
    with RecognitionClient("127.0.0.1", port) as client:
        client.recognise(request_codes[0])
    stop_async_server(server)
    assert service.closed
    second_service = make_service(serving_amm, max_batch_size=4, max_wait=0.0)
    second = start_async_server(second_service, port=port, binary_port=0)
    assert second.port == port
    stop_async_server(second)
