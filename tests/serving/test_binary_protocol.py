"""Binary-endpoint tests: parity, protocol errors, chaos, abandonment.

The native binary endpoint of the asyncio front end speaks the
``repro.backends.wire`` framing and must honour the full serving
contract: bit-identical results, the same admission/error taxonomy as
JSON (carried in typed ERROR frames), and graceful handling of every
byte-level failure a real client can inflict — torn frames, truncated
writes, version-mismatched peers.  The rule under chaos: the server
answers with a *typed* ERROR frame or drops the connection cleanly; it
never hangs and never wedges the listener for the next client.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

import repro.serving.aio as aio_module
from repro.backends import wire
from repro.serving import (
    BinaryRecognitionClient,
    QuotaConfig,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)
from tests.backends.chaos import ChaosProxy
from tests.serving.test_regressions import wait_for

def make_service(serving_amm, **overrides):
    settings = dict(max_batch_size=8, max_wait=1e-3)
    settings.update(overrides)
    return RecognitionService(serving_amm, **settings)


@pytest.fixture()
def binary_server(serving_amm):
    service = make_service(serving_amm)
    server = start_async_server(service, port=0, binary_port=0)
    yield server
    if not service.closed:
        stop_async_server(server)


class TestParity:
    def test_batch_matches_engine_bit_for_bit(
        self, binary_server, serving_amm, request_codes, request_seeds
    ):
        seeds = [int(seed) for seed in request_seeds[:10]]
        with BinaryRecognitionClient(
            "127.0.0.1", binary_server.binary_port
        ) as client:
            result = client.recognise_batch(request_codes[:10], seeds=seeds)
        reference = serving_amm.recognise_batch_seeded(request_codes[:10], seeds)
        assert result.count == 10 and result.ok == 10 and result.failed == 0
        for index, row in enumerate(reference):
            assert result.winner[index] == row.winner
            assert result.winner_column[index] == row.winner_column
            assert result.dom_code[index] == row.dom_code
            assert bool(result.accepted[index]) == row.accepted
            assert bool(result.tie[index]) == row.tie
            assert result.static_power_w[index] == row.static_power
        assert result.rows()[0]["winner"] == reference[0].winner

    def test_broadcast_seed_and_keepalive(self, binary_server, request_codes):
        with BinaryRecognitionClient(
            "127.0.0.1", binary_server.binary_port
        ) as client:
            client.ping()
            first = client.recognise_batch(request_codes[:3])
            second = client.recognise_batch(request_codes[:3])
            assert first.ok == second.ok == 3
            # Same connection, same seeds: determinism holds per request.
            assert first.winner.tolist() == second.winner.tolist()

    def test_admission_rejection_is_typed_error_frame(
        self, serving_amm, request_codes
    ):
        service = make_service(
            serving_amm, quota=QuotaConfig(rate=1.0, burst=2, max_inflight=64)
        )
        server = start_async_server(service, port=0, binary_port=0)
        try:
            with BinaryRecognitionClient(
                "127.0.0.1", server.binary_port, client_id="greedy"
            ) as client:
                with pytest.raises(ServerError) as excinfo:
                    for _ in range(4):
                        client.recognise_batch(request_codes[:2])
                assert excinfo.value.status == 429
                assert excinfo.value.reason == "quota"
                # The connection survives an admission rejection.
                client.ping()
        finally:
            stop_async_server(server)

    def test_malformed_request_keeps_connection_usable(
        self, binary_server, request_codes
    ):
        with BinaryRecognitionClient(
            "127.0.0.1", binary_server.binary_port
        ) as client:
            wire.send_frame(
                client._sock, wire.RECOGNISE, header={"id": 7}, arrays={}
            )
            kind, _version, header, _arrays = wire.recv_frame(client._sock)
            assert kind == wire.ERROR
            assert header.get("status") == 400
            assert header.get("id") == 7
            # Frame was fully consumed: the next request still works.
            result = client.recognise_batch(request_codes[:2])
            assert result.ok == 2

    def test_per_row_deadline_failures(
        self, serving_amm, request_codes, monkeypatch
    ):
        import time as time_module

        from repro.backends.serial import SerialBackend

        original = SerialBackend.recall_batch_seeded

        def slowed(self, codes_batch, request_seeds):
            time_module.sleep(0.2)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", slowed)
        # Serialise dispatch so rows behind the head can miss their
        # deadline while still queued.
        service = make_service(serving_amm, max_batch_size=1, workers=1)
        server = start_async_server(service, port=0, binary_port=0)
        try:
            with BinaryRecognitionClient(
                "127.0.0.1", server.binary_port
            ) as client:
                result = client.recognise_batch(
                    request_codes[:6], timeout_ms=50.0
                )
        finally:
            stop_async_server(server)
        assert result.count == 6
        assert result.failed >= 1 and result.ok + result.failed == 6
        failed_index = next(iter(result.errors))
        with pytest.raises(ServerError) as excinfo:
            result.row(failed_index)
        assert excinfo.value.status == 504
        assert excinfo.value.reason == "deadline"


class TestHandshake:
    def test_version_mismatch_gets_typed_error_never_a_hang(self, binary_server):
        with socket.create_connection(
            ("127.0.0.1", binary_server.binary_port), timeout=10.0
        ) as sock:
            wire.send_frame(sock, wire.HELLO, header={"protocol": 99})
            kind, _version, header, _arrays = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert header["type"] == "ProtocolVersionError"
            assert "99" in header["message"]
            # Then a clean close, not a lingering socket.
            assert sock.recv(1) == b""

    def test_non_hello_first_frame_rejected(self, binary_server):
        with socket.create_connection(
            ("127.0.0.1", binary_server.binary_port), timeout=10.0
        ) as sock:
            wire.send_frame(sock, wire.PING, header={})
            kind, _version, header, _arrays = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert "HELLO" in header["message"]
            assert sock.recv(1) == b""

    def test_garbage_bytes_get_typed_error(self, binary_server):
        with socket.create_connection(
            ("127.0.0.1", binary_server.binary_port), timeout=10.0
        ) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: wrong-port\r\n\r\n")
            kind, _version, header, _arrays = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert header["type"] in ("WireProtocolError", "ProtocolVersionError")
            assert sock.recv(1) == b""


class TestChaos:
    """Byte-level faults through the fault-injection proxy."""

    def assert_server_still_healthy(self, server, request_codes):
        with BinaryRecognitionClient("127.0.0.1", server.binary_port) as client:
            assert client.recognise_batch(request_codes[:2]).ok == 2

    def test_torn_frame_mid_array_drops_connection_cleanly(
        self, binary_server, request_codes
    ):
        with ChaosProxy(("127.0.0.1", binary_server.binary_port)) as proxy:
            host, port = proxy.address
            client = BinaryRecognitionClient(host, port, timeout=10.0)
            try:
                # Cut the client→server pipe in the middle of the next
                # frame's array payload (prefix + a sliver of the body).
                proxy.close_after(wire.PREFIX_SIZE + 40)
                with pytest.raises(
                    (OSError, wire.WireProtocolError, wire.ConnectionClosedError)
                ):
                    client.recognise_batch(request_codes[:8])
            finally:
                client._sock.close()
        self.assert_server_still_healthy(binary_server, request_codes)

    @pytest.mark.parametrize("cut_at", [1, 4, 9, 16])
    def test_close_at_byte_n_never_wedges_the_server(
        self, binary_server, request_codes, cut_at
    ):
        """Whatever byte the connection dies at — mid-magic, mid-prefix,
        mid-header — the server sheds the connection and keeps serving."""
        with ChaosProxy(("127.0.0.1", binary_server.binary_port)) as proxy:
            host, port = proxy.address
            sock = socket.create_connection((host, port), timeout=10.0)
            try:
                proxy.close_after(cut_at)
                with pytest.raises((OSError, wire.ConnectionClosedError)):
                    wire.send_frame(
                        sock, wire.HELLO, header={"protocol": wire.PROTOCOL_VERSION}
                    )
                    wire.recv_frame(sock)
            finally:
                sock.close()
        self.assert_server_still_healthy(binary_server, request_codes)

    def test_version_mismatch_through_proxy_is_typed(
        self, binary_server, request_codes
    ):
        """A delayed, proxied peer speaking the wrong protocol version
        still gets the typed ERROR frame — never a hang."""
        with ChaosProxy(("127.0.0.1", binary_server.binary_port)) as proxy:
            proxy.delay(0.05)
            host, port = proxy.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                wire.send_frame(sock, wire.HELLO, header={"protocol": 0})
                kind, _version, header, _arrays = wire.recv_frame(sock)
                assert kind == wire.ERROR
                assert header["type"] == "ProtocolVersionError"
        self.assert_server_still_healthy(binary_server, request_codes)


class TestAbandonment:
    def test_abandoned_connection_cancels_queued_rows_and_releases_quota(
        self, serving_amm, request_codes, monkeypatch
    ):
        """A binary client that sends a big batch and vanishes must not
        keep the engine busy: once the next ROWS write fails, the queued
        tail is cancelled and the client's quota slots come home."""
        import time as time_module

        from repro.backends.serial import SerialBackend

        recalled: list = []
        original = SerialBackend.recall_batch_seeded

        def slowed(self, codes_batch, request_seeds):
            time_module.sleep(0.15)
            recalled.extend(int(seed) for seed in request_seeds)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", slowed)
        # Flush a ROWS frame per resolved row so the dead socket is
        # noticed while most of the batch is still queued.
        monkeypatch.setattr(aio_module, "_ROWS_FLUSH", 1)
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=256),
        )
        server = start_async_server(service, port=0, binary_port=0)
        codes = np.tile(request_codes, (2, 1))[:24]
        seeds = list(range(2000, 2024))
        try:
            client = BinaryRecognitionClient(
                "127.0.0.1", server.binary_port, client_id="abandoner"
            )
            wire.send_frame(
                client._sock,
                wire.RECOGNISE,
                header={},
                arrays={
                    "codes": np.ascontiguousarray(codes, dtype=np.int64),
                    "seeds": np.ascontiguousarray(seeds, dtype=np.int64),
                },
            )
            # Read one ROWS frame so the request is provably in flight,
            # then vanish without consuming the rest.
            kind, _version, _header, _arrays = wire.recv_frame(client._sock)
            assert kind == wire.ROWS
            client._sock.close()
            assert wait_for(
                lambda: service.metrics.cancelled > 0, timeout=20.0
            ), "no queued rows were cancelled after the disconnect"
            assert wait_for(
                lambda: service.quotas.inflight("abandoner") == 0, timeout=20.0
            ), "abandoned binary connection leaked in-flight quota slots"
            assert set(seeds) - set(recalled), (
                "every row was solved despite the client leaving"
            )
        finally:
            stop_async_server(server)


def test_binary_disabled_when_port_is_none(serving_amm, request_codes):
    service = make_service(serving_amm)
    server = start_async_server(service, port=0, binary_port=None)
    try:
        assert server.binary_port is None
        from repro.serving import RecognitionClient

        with RecognitionClient("127.0.0.1", server.port) as client:
            stats = client.stats()
        assert stats["frontend"]["binary_connections_total"] == 0
    finally:
        stop_async_server(server)
