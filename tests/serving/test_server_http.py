"""HTTP front-end tests: endpoints, error mapping, connection persistence.

The remaining error-taxonomy statuses (404, malformed JSON, wrong shape,
411, seed overflow, 503, 504) and the port-release check are pinned in
``test_async_frontend.py``.
"""

import http.client
import json
import socket

import numpy as np
import pytest

from repro.serving import (
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)


@pytest.fixture()
def running_server(serving_amm):
    service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
    server = start_async_server(service, port=0)
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


class TestEndpoints:
    def test_single_recognise_round_trip(self, running_server, serving_amm, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
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

    def test_multi_image_request(self, running_server, serving_amm, request_codes, request_seeds):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            results = client.recognise_many(request_codes[:5], seeds=request_seeds[:5])
        reference = serving_amm.recognise_batch_seeded(
            request_codes[:5], request_seeds[:5]
        )
        assert len(results) == 5
        for index, result in enumerate(results):
            assert result["winner"] == reference[index].winner
            assert result["dom_code"] == reference[index].dom_code

    def test_healthz(self, running_server):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        # A default service runs on the one-engine serial backend.
        assert health["backend"] == "serial"
        assert health["workers"] == 1
        assert health["array"] == {"rows": 32, "columns": 6}

    def test_stats_reflect_traffic(self, running_server, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            client.recognise_many(request_codes[:6])
            stats = client.stats()
        assert stats["requests"]["submitted"] >= 6
        assert stats["requests"]["completed"] >= 6
        assert stats["batches"]["dispatched"] >= 1
        assert stats["latency"]["samples"] >= 6
        json.dumps(stats)  # snapshot must stay JSON-serialisable


class TestErrorMapping:
    def test_never_admittable_batch_400_not_429(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=4, max_queue_depth=4)
        server = start_async_server(service, port=0)
        try:
            rows = np.tile(request_codes[0], (6, 1)).tolist()
            status, payload = raw_post(
                server.port, "/recognise", json.dumps({"codes": rows}).encode()
            )
            assert status == 400
            assert "split (or stream) the request" in payload["error"]
        finally:
            stop_async_server(server)

    def test_client_raises_server_error(self, running_server):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.recognise(np.zeros(3, dtype=int))
        assert excinfo.value.status == 400

    def test_oversized_body_400_and_connection_close(self, running_server):
        from repro.serving.protocol import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.port, timeout=10.0
        )
        try:
            # Declare an oversized body without streaming it: the server
            # must reject on the declared length, before reading.
            connection.putrequest("POST", "/recognise")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            connection.send(b"{}")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "exceeds" in payload["error"]
            # The unread body desynchronises keep-alive, so the server
            # must drop the connection instead of reusing it.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()


def read_response(sock):
    """One ``Content-Length`` framed response off a raw socket:
    ``(lower-cased head, body)``."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(4096)
        assert chunk, "connection closed before the response head"
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    head = head.lower()
    length = int(head.split(b"content-length:", 1)[1].split(b"\r\n", 1)[0])
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head, body


class TestConnectionPersistence:
    def test_http10_request_closes_after_response(self, running_server):
        """A plain HTTP/1.0 client (``curl -0``, ``ab`` without ``-k``)
        reads its response to EOF, so the server must close right after
        answering instead of holding the socket until the idle timeout."""
        with socket.create_connection(
            ("127.0.0.1", running_server.port), timeout=5.0
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            head, body = read_response(sock)
            assert b" 200 " in head.split(b"\r\n", 1)[0]
            assert b"connection: close" in head
            assert json.loads(body)["status"] == "ok"
            # EOF now, not a socket.timeout five seconds later.
            assert sock.recv(4096) == b""

    def test_http10_keep_alive_persists(self, running_server):
        with socket.create_connection(
            ("127.0.0.1", running_server.port), timeout=5.0
        ) as sock:
            for _ in range(2):
                sock.sendall(
                    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                head, body = read_response(sock)
                assert b" 200 " in head.split(b"\r\n", 1)[0]
                assert b"connection: close" not in head
                assert json.loads(body)["status"] == "ok"


def test_explicit_port_boot_uses_free_port_fixture(
    serving_amm, request_codes, free_port
):
    """The pattern for tests that must name a port up front: take it
    from the shared ``free_port`` fixture (never a hard-coded number or
    a bind-retry loop) and serve on it normally."""
    service = RecognitionService(serving_amm, max_batch_size=4, max_wait=0.0)
    server = start_async_server(service, port=free_port)
    try:
        assert server.port == free_port
        with RecognitionClient("127.0.0.1", free_port) as client:
            assert client.healthz()["status"] == "ok"
            client.recognise(request_codes[0], seed=3)
    finally:
        stop_async_server(server)
