"""Request-deadline tests: ``timeout_ms`` → drop before dispatch → 504.

A request that is still queued when its ``timeout_ms`` budget expires
must be dropped *before* any engine time is spent, resolve with
:class:`~repro.serving.service.DeadlineExceededError` (HTTP 504), and be
counted under ``requests.expired`` in the stats snapshot — while
unexpired traffic is served normally.
"""

from __future__ import annotations

import threading

import pytest

from repro.backends.serial import SerialBackend
from repro.serving import (
    DeadlineExceededError,
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)


@pytest.fixture()
def gated_backend(monkeypatch):
    """Gate backend recalls so queued requests can be made to expire."""
    gate = threading.Event()
    original = SerialBackend.recall_batch_seeded

    def gated_recall(self, codes_batch, request_seeds):
        gate.wait(timeout=20.0)
        return original(self, codes_batch, request_seeds)

    monkeypatch.setattr(SerialBackend, "recall_batch_seeded", gated_recall)
    yield gate
    gate.set()


class TestServiceDeadlines:
    def test_expired_request_fails_with_deadline_error(
        self, serving_amm, request_codes, gated_backend
    ):
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        try:
            # Occupy the dispatch slots so later requests stay queued.
            blockers = [
                service.submit(request_codes[index], seed=index) for index in range(3)
            ]
            doomed = service.submit(request_codes[3], seed=99, timeout_ms=1.0)
            gated_backend.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=20.0)
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert service.metrics.expired == 1
            assert service.stats()["requests"]["expired"] == 1
        finally:
            gated_backend.set()
            service.close()

    def test_generous_deadline_served(self, serving_amm, request_codes):
        with RecognitionService(serving_amm, max_batch_size=8, max_wait=0.0) as service:
            result = service.recognise(
                request_codes[0], seed=5, timeout=20.0, timeout_ms=30_000.0
            )
            assert 0 <= result.winner_column < serving_amm.crossbar.columns
            assert service.metrics.expired == 0

    def test_invalid_timeout_rejected(self, serving_amm, request_codes):
        with RecognitionService(serving_amm) as service:
            with pytest.raises(ValueError, match="timeout_ms"):
                service.submit(request_codes[0], timeout_ms=0.0)
            with pytest.raises(ValueError, match="timeout_ms"):
                service.submit(request_codes[0], timeout_ms=-5.0)


class TestHttpDeadlines:
    def test_expired_maps_to_504_and_stats_counter(
        self, serving_amm, request_codes, gated_backend
    ):
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                # Fill the dispatch slots through the gated backend.
                fillers = [
                    threading.Thread(
                        target=lambda i=i: service.submit(request_codes[i], seed=i)
                    )
                    for i in range(3)
                ]
                for thread in fillers:
                    thread.start()
                for thread in fillers:
                    thread.join()
                # Release the gate shortly after the doomed request's
                # 1 ms budget has surely expired; the queue then drains
                # and the drop happens at dispatch time.
                release = threading.Timer(0.2, gated_backend.set)
                release.start()
                try:
                    with pytest.raises(ServerError) as excinfo:
                        client.recognise(request_codes[4], seed=4, timeout_ms=1.0)
                    assert excinfo.value.status == 504
                finally:
                    release.join()
                stats = client.stats()
                assert stats["requests"]["expired"] == 1
        finally:
            gated_backend.set()
            stop_async_server(server)

    def test_timeout_ms_round_trip_without_pressure(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=0.0)
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                result = client.recognise(request_codes[0], seed=3, timeout_ms=30_000)
                assert "winner" in result
                batch = client.recognise_many(
                    request_codes[:4], seeds=[1, 2, 3, 4], timeout_ms=30_000
                )
                assert len(batch) == 4
        finally:
            stop_async_server(server)

    def test_bad_timeout_ms_maps_to_400(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=0.0)
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.recognise(request_codes[0], timeout_ms=-1.0)
                assert excinfo.value.status == 400
        finally:
            stop_async_server(server)
