"""Streaming-mode tests: chunked NDJSON rows, windowing, partial failure.

``POST /recognise`` with ``"stream": true`` answers with a chunked
``application/x-ndjson`` body: one line per row as its future resolves
(``{"index": ..., "result": ...}`` or a per-row error object), then a
``{"done": true, ...}`` summary.  The service submits rows in bounded
windows, so a request *larger than the whole queue* — a hard 400 on the
buffered path — streams through with flat server-side buffering, and
every streamed result is bit-identical to the buffered/serial path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.serving.aio as aio_module
from repro.serving import (
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)
from tests.serving.test_regressions import wait_for


@pytest.fixture()
def running_server(serving_amm):
    service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
    server = start_async_server(service, port=0)
    yield server
    if not service.closed:
        stop_async_server(server)


class TestStreamRoundTrip:
    def test_stream_matches_buffered_bit_identical(
        self, running_server, request_codes, request_seeds
    ):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            buffered = client.recognise_many(request_codes, seeds=request_seeds)
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            events = list(
                client.recognise_stream(request_codes, seeds=request_seeds)
            )
        summary = events[-1]
        assert summary["done"] is True
        assert summary["count"] == len(request_seeds)
        assert summary["ok"] == len(request_seeds)
        assert summary["failed"] == 0
        rows = [event for event in events if "result" in event]
        assert [row["index"] for row in rows] == list(range(len(request_seeds)))
        for index, row in enumerate(rows):
            assert row["result"] == buffered[index]

    def test_stream_content_type_is_ndjson(self, running_server, request_codes):
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.port, timeout=10.0
        )
        try:
            body = json_module.dumps(
                {"codes": request_codes[:3].tolist(), "stream": True}
            ).encode()
            connection.request(
                "POST",
                "/recognise",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            # http.client strips the hop-by-hop Transfer-Encoding framing;
            # chunked delivery shows as no Content-Length on the response.
            assert response.getheader("Content-Length") is None
            lines = [line for line in response.read().splitlines() if line]
            assert len(lines) == 4  # 3 rows + summary
        finally:
            connection.close()

    @pytest.mark.parametrize("connection", [b"", b"Connection: keep-alive\r\n"])
    def test_http10_stream_is_close_delimited(
        self, running_server, request_codes, request_seeds, connection
    ):
        """HTTP/1.0 defines no chunked coding: the NDJSON lines arrive
        unframed, the head says ``Connection: close`` and EOF ends the
        body -- even when the request asked for keep-alive."""
        import json as json_module
        import socket

        body = json_module.dumps(
            {
                "codes": request_codes[:3].tolist(),
                "seeds": [int(seed) for seed in request_seeds[:3]],
                "stream": True,
            }
        ).encode()
        with socket.create_connection(
            ("127.0.0.1", running_server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /recognise HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                + connection
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            received = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break  # EOF delimits the body
                received += data
        head, _, payload = received.partition(b"\r\n\r\n")
        head = head.lower()
        assert b" 200 " in head.split(b"\r\n", 1)[0]
        assert b"transfer-encoding" not in head
        assert b"content-length" not in head
        assert b"connection: close" in head
        events = [json_module.loads(line) for line in payload.splitlines() if line]
        assert events[-1] == {"done": True, "count": 3, "ok": 3, "failed": 0}
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            buffered = client.recognise_many(
                request_codes[:3], seeds=request_seeds[:3]
            )
        assert [event["result"] for event in events[:-1]] == buffered

    def test_single_vector_stream_rejected(self, running_server, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                list(client.recognise_stream(request_codes[0]))
            assert excinfo.value.status == 400

    def test_stream_with_priority_and_client_id(self, running_server, request_codes):
        with RecognitionClient(
            "127.0.0.1", running_server.port, client_id="edge-7"
        ) as client:
            events = list(
                client.recognise_stream(
                    request_codes[:4], seeds=[1, 2, 3, 4], priority=4
                )
            )
            assert events[-1]["ok"] == 4
            stats = client.stats()
        assert stats["clients"]["edge-7"]["submitted"] == 4
        assert stats["priorities"]["4"]["completed"] == 4


class TestWindowedSubmission:
    def test_request_larger_than_queue_streams_through(self, serving_amm, request_codes):
        """64 rows through a queue that admits 8: impossible buffered,
        routine streamed — the windows are bounded server-side buffering."""
        service = RecognitionService(
            serving_amm, max_batch_size=4, max_wait=0.0, max_queue_depth=8
        )
        server = start_async_server(service, port=0)
        codes = np.tile(request_codes, (3, 1))[:64]
        seeds = list(range(64))
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.recognise_many(codes, seeds=seeds)
                assert excinfo.value.status == 400  # never admittable buffered
                events = list(client.recognise_stream(codes, seeds=seeds))
            assert events[-1] == {"done": True, "count": 64, "ok": 64, "failed": 0}
            reference = serving_amm.recognise_batch_seeded(codes, seeds)
            rows = [event for event in events if "result" in event]
            for index, row in enumerate(rows):
                assert row["index"] == index
                assert row["result"]["winner"] == reference[index].winner
                assert row["result"]["dom_code"] == reference[index].dom_code
                # Discrete fields exactly; the analog power to solver
                # precision (replica engines may take another BLAS path).
                assert row["result"]["static_power_w"] == pytest.approx(
                    reference[index].static_power, rel=1e-9
                )
        finally:
            stop_async_server(server)

    def test_window_clamped_to_quota_inflight_cap(self, serving_amm, request_codes):
        """A client whose max_inflight is below the default window must
        still be able to stream: the window shrinks to the cap instead
        of every window submission being denied outright."""
        from repro.serving import QuotaConfig

        service = RecognitionService(
            serving_amm,
            max_batch_size=32,  # default window 64 > the cap of 4
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=4),
        )
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="small-tenant"
            ) as client:
                events = list(
                    client.recognise_stream(
                        request_codes[:12], seeds=list(range(12))
                    )
                )
            assert events[-1] == {"done": True, "count": 12, "ok": 12, "failed": 0}
        finally:
            stop_async_server(server)

    def test_stream_honours_per_row_timeout_ms_on_healthy_server(
        self, running_server, request_codes
    ):
        """timeout_ms is a per-row dispatch deadline, not a whole-stream
        budget: a healthy server streams every row within it."""
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            events = list(
                client.recognise_stream(
                    request_codes[:6], seeds=list(range(6)), timeout_ms=30_000
                )
            )
        assert events[-1]["ok"] == 6

class TestPartialFailure:
    def test_expired_rows_become_error_objects(
        self, serving_amm, request_codes, recall_gate
    ):
        """Rows that miss their deadline resolve as per-row 504 error
        objects inside an HTTP-200 stream — not a dropped response."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0)
        try:
            # Fill the gated dispatch pipeline from a side thread so the
            # streamed rows sit in the queue past their 1 ms deadline.
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            release = threading.Timer(0.3, gate.set)
            release.start()
            try:
                with RecognitionClient("127.0.0.1", server.port) as client:
                    events = list(
                        client.recognise_stream(
                            request_codes[:4], seeds=[1, 2, 3, 4], timeout_ms=1.0
                        )
                    )
            finally:
                release.join()
            summary = events[-1]
            assert summary["done"] is True
            assert summary["failed"] == 4 and summary["ok"] == 0
            for event in events[:-1]:
                assert event["error"]["status"] == 504
                assert event["error"]["reason"] == "deadline"
                assert event["error"]["type"] == "DeadlineExceededError"
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert service.metrics.expired == 4
        finally:
            gate.set()
            stop_async_server(server)

    def test_whole_stream_timeout_fails_remaining_rows(
        self, serving_amm, request_codes, recall_gate, monkeypatch
    ):
        """When the whole-stream budget runs out, every row still owed
        comes back as a 504 error line under a well-formed summary, and
        the timed-out rows are cancelled rather than solved."""
        gate, recalled = recall_gate
        monkeypatch.setattr(aio_module, "MAX_REQUEST_TIMEOUT", 0.3)
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0)
        try:
            # Fill the gated dispatch pipeline so the streamed rows queue.
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            with RecognitionClient("127.0.0.1", server.port) as client:
                events = list(
                    client.recognise_stream(request_codes[:4], seeds=[1, 2, 3, 4])
                )
            assert events[-1] == {"done": True, "count": 4, "ok": 0, "failed": 4}
            assert [event["index"] for event in events[:-1]] == [0, 1, 2, 3]
            for event in events[:-1]:
                assert event["error"]["status"] == 504
                assert event["error"]["reason"] == "deadline"
                assert event["error"]["type"] == "TimeoutError"
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert sorted(recalled) == [100, 101, 102]
        finally:
            gate.set()
            stop_async_server(server)


class TestMidStreamClose:
    def test_close_fails_remaining_rows_per_row(
        self, serving_amm, request_codes, recall_gate
    ):
        """A service closed mid-stream answers every row it no longer
        serves with a per-row 503 ``ServiceClosedError`` line, and the
        stream still ends in a well-formed summary."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=8, workers=1
        )
        server = start_async_server(service, port=0)
        events: list = []

        def stream() -> None:
            with RecognitionClient("127.0.0.1", server.port) as client:
                events.extend(
                    client.recognise_stream(
                        np.tile(request_codes[0], (12, 1)), seeds=list(range(1, 13))
                    )
                )

        streamer = threading.Thread(target=stream)
        closer = threading.Thread(target=service.close, kwargs={"timeout": 0.1})
        try:
            streamer.start()
            # The first window (8 rows, the queue depth) is admitted; the
            # gated dispatch pipeline holds 4 of them, the rest stay queued.
            assert wait_for(lambda: service.metrics.submitted == 8)
            closer.start()
            # close() fails the queued rows before the gate opens...
            assert wait_for(lambda: service.metrics.failed > 0)
            gate.set()
            # ...and the 4 rows never submitted fail at admission.
            streamer.join(timeout=20.0)
            assert not streamer.is_alive()
            closer.join(timeout=20.0)
            summary = events[-1]
            assert summary["done"] is True and summary["count"] == 12
            assert summary["ok"] + summary["failed"] == 12
            assert [event["index"] for event in events[:-1]] == list(range(12))
            assert "result" in events[0]
            failures = [event for event in events[:-1] if "error" in event]
            assert len(failures) == summary["failed"]
            assert {event["index"] for event in failures} >= {7, 8, 9, 10, 11}
            for event in failures:
                assert event["error"]["status"] == 503
                assert event["error"]["type"] == "ServiceClosedError"
        finally:
            gate.set()
            for thread in (streamer, closer):
                if thread.ident is not None:
                    thread.join(timeout=20.0)
            stop_async_server(server)


class TestStreamAbandonment:
    @pytest.fixture()
    def slow_recalls(self, monkeypatch):
        """Slow every backend recall down and record the seeds actually
        solved — the instrument that shows cancelled rows never reached
        the engine."""
        import time as time_module

        from repro.backends.serial import SerialBackend

        recalled: list = []
        original = SerialBackend.recall_batch_seeded

        def wrapped(self, codes_batch, request_seeds):
            time_module.sleep(0.15)
            recalled.extend(int(seed) for seed in request_seeds)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", wrapped)
        return recalled

    def test_disconnect_mid_ndjson_cancels_queued_rows(
        self, serving_amm, request_codes, slow_recalls
    ):
        """A client that walks away mid-stream must not keep the engine
        working: its still-queued rows are cancelled (counted under
        ``requests.cancelled``), their seeds never reach a recall, and
        the client's in-flight quota slots all come home — no leak."""
        from repro.serving import QuotaConfig

        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=256),
        )
        server = start_async_server(service, port=0)
        codes = np.tile(request_codes, (2, 1))[:24]
        seeds = list(range(1000, 1024))
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="abandoner"
            ) as client:
                events = client.recognise_stream(codes, seeds=seeds)
                first = next(events)
                assert "result" in first
                # Walk away after one row: closing the generator drops
                # the connection with the stream unfinished.
                events.close()
            # The server notices the dead socket on a later write and
            # closes the service generator, cancelling queued rows.
            assert wait_for(
                lambda: service.metrics.cancelled > 0, timeout=20.0
            ), "no queued rows were cancelled after the disconnect"
            # Every in-flight row resolved (served, failed or cancelled):
            # the quota slots must all be released — nothing leaks.
            assert wait_for(
                lambda: service.quotas.inflight("abandoner") == 0, timeout=20.0
            ), "abandoned stream leaked in-flight quota slots"
            stats = service.stats()
            assert stats["requests"]["cancelled"] >= 1
            # The cancelled tail really was spared: at least one seed of
            # the request never reached the engine.
            assert set(seeds) - set(slow_recalls), (
                "every row was solved despite the client leaving"
            )
        finally:
            stop_async_server(server)

class TestStreamAdmission:
    def test_saturated_queue_streams_cleanly_rejected(
        self, serving_amm, request_codes, recall_gate
    ):
        """When nothing of the stream can be admitted, the caller gets the
        same clean 429 as a buffered request — not a broken stream."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=2, workers=1
        )
        server = start_async_server(service, port=0)
        try:
            from repro.serving import BackpressureError

            # Saturate the whole pipeline: keep submitting through
            # transient rejections (batcher wakeup lag) until the gated
            # pipeline is full AND the bounded queue stays at capacity.
            import time as time_module

            admitted = []
            deadline = time_module.monotonic() + 10.0
            while time_module.monotonic() < deadline:
                try:
                    admitted.append(
                        service.submit(
                            request_codes[len(admitted) % 8], seed=len(admitted)
                        )
                    )
                except BackpressureError:
                    if len(admitted) >= 5 and service.queue_depth >= 2:
                        break
                    time_module.sleep(0.005)
            assert service.queue_depth >= 2
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    list(
                        client.recognise_stream(
                            np.tile(request_codes[0], (4, 1)), seeds=[1, 2, 3, 4]
                        )
                    )
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "backpressure"
            gate.set()
            for future in admitted:
                future.result(timeout=20.0)
        finally:
            gate.set()
            stop_async_server(server)
