"""Regression pins for the serving-path bug sweep of the hardening PR.

Each test here fails on the pre-PR code:

* ``recognise_many`` leaked in-flight work on timeout — the engine kept
  solving rows for a caller that had already received its 504;
* ``ShardedWorkerPool.dispatch`` raced ``close()`` — a batch enqueued
  between the closed check and the sentinel drain hung its futures
  forever;
* the HTTP handler silently truncated non-integer codes (``1.7`` →
  ``1``) and served a wrong answer instead of a 400;
* the batch-fill histogram counted expired/cancelled requests (the
  collected size) instead of the dispatched live size.  (The companion
  ``percentile`` banker's-rounding pin lives in ``test_metrics.py``.)
"""

from __future__ import annotations

import concurrent.futures
import json
import time

import numpy as np
import pytest

from repro.serving import (
    FutureSubmission,
    RecognitionService,
    ServiceClosedError,
    ShardedWorkerPool,
    start_async_server,
    stop_async_server,
)


def wait_for(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestGatherLeak:
    def test_timeout_cancels_still_queued_rows(
        self, serving_amm, request_codes, recall_gate
    ):
        """A timed-out multi-image gather must not leave its rows running."""
        gate, recalled = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        try:
            # Fill the dispatch pipeline (1 in-flight + 2 bounded slots)
            # so the gather's rows stay queued in the service.
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            with pytest.raises(concurrent.futures.TimeoutError):
                service.recognise_many(
                    request_codes[:4], seeds=[1, 2, 3, 4], timeout=0.3
                )
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=20.0)
            # Let the dispatchers drain whatever they are going to drain.
            assert wait_for(lambda: service.queue_depth == 0)
            time.sleep(0.1)
            leaked = set(recalled) & {1, 2, 3, 4}
            assert not leaked, (
                f"engine solved rows {sorted(leaked)} for a caller that "
                "already timed out"
            )
            assert service.metrics.cancelled >= 1
        finally:
            gate.set()
            service.close()

    def test_row_error_abandons_later_rows(self, serving_amm, request_codes):
        """A row failing mid-gather must not strand the rows behind it."""
        service = RecognitionService(serving_amm, max_batch_size=4, max_wait=1e-3)
        try:
            bad = np.vstack([request_codes[:2], np.full((1, 32), 99)])
            with pytest.raises(ValueError):
                service.recognise_many(bad, seeds=[1, 2, 3], timeout=20.0)
        finally:
            service.close()


class TestDispatchCloseRace:
    def test_dispatch_after_close_resolves_futures(self, serving_amm, request_codes):
        """Pre-PR, a batch dispatched after close() hung its futures forever;
        now every future fails with ServiceClosedError (and dispatch raises)."""
        pool = ShardedWorkerPool(serving_amm, workers=1)
        pool.close()
        submission = FutureSubmission(
            np.asarray(request_codes[:1], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        with pytest.raises(ServiceClosedError):
            pool.dispatch([(submission, 0, 1)])
        with pytest.raises(ServiceClosedError):
            submission.futures[0].result(timeout=1.0)
        assert pool.metrics.failed == 1

    def test_service_survives_pool_closed_underneath(
        self, serving_amm, request_codes
    ):
        """The micro-batcher must survive a directly-closed pool: queued
        futures fail cleanly instead of killing the batcher thread."""
        service = RecognitionService(serving_amm, max_batch_size=4, max_wait=50e-3)
        try:
            service.pool.close()
            future = service.submit(request_codes[0], seed=1)
            with pytest.raises(ServiceClosedError):
                future.result(timeout=20.0)
            assert service._batcher.is_alive()
        finally:
            service.close()


class TestNonIntegralCodes:
    @pytest.fixture()
    def running_server(self, serving_amm):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
        server = start_async_server(service, port=0)
        yield server
        stop_async_server(server)

    def post(self, port, body: dict):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            connection.request(
                "POST",
                "/recognise",
                body=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_fractional_codes_rejected_not_truncated(
        self, running_server, request_codes
    ):
        codes = [float(value) for value in request_codes[0]]
        codes[0] = 1.7  # pre-PR: silently truncated to 1, wrong answer served
        status, payload = self.post(running_server.port, {"codes": codes})
        assert status == 400
        assert "integ" in payload["error"]

    def test_fractional_batch_codes_rejected(self, running_server, request_codes):
        rows = request_codes[:2].astype(float).tolist()
        rows[1][3] += 0.5
        status, payload = self.post(running_server.port, {"codes": rows})
        assert status == 400

    def test_boolean_and_string_codes_rejected(self, running_server, request_codes):
        status, _ = self.post(
            running_server.port, {"codes": [True] * request_codes.shape[1]}
        )
        assert status == 400
        status, _ = self.post(
            running_server.port, {"codes": ["3"] * request_codes.shape[1]}
        )
        assert status == 400

    def test_integral_floats_accepted(self, running_server, request_codes):
        """2.0 is an integer a JSON client could not avoid emitting."""
        codes = [float(value) for value in request_codes[0]]
        status, payload = self.post(
            running_server.port, {"codes": codes, "seed": 7}
        )
        assert status == 200
        assert "result" in payload

    def test_fractional_seed_rejected(self, running_server, request_codes):
        status, _ = self.post(
            running_server.port,
            {"codes": request_codes[0].tolist(), "seed": 1.5},
        )
        assert status == 400


class TestBatchFillHistogram:
    def test_fill_counts_dispatched_live_size(
        self, serving_amm, request_codes, recall_gate
    ):
        """Expired rows must not inflate the fill histogram: total batched
        rows must equal completed rows once the queue drains."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=8, max_wait=1e-3, workers=1
        )
        try:
            blockers = [
                service.submit(request_codes[index], seed=50 + index)
                for index in range(3)
            ]
            # Wait until the blockers left the service queue (they sit in
            # the gated dispatch pipeline), then queue rows that expire.
            assert wait_for(lambda: service.queue_depth == 0)
            doomed = service.submit_many(
                request_codes[:2], seeds=[1, 2], timeout_ms=1.0
            )
            time.sleep(0.1)  # both deadlines pass while the gate is held
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=20.0)
            for future in doomed:
                with pytest.raises(Exception):
                    future.result(timeout=20.0)
            assert wait_for(lambda: service.metrics.expired == 2)
            stats = service.stats()
            fill = stats["batches"]["fill_histogram"]
            total_batched = sum(int(size) * count for size, count in fill.items())
            assert total_batched == stats["requests"]["completed"] == 3
            assert stats["requests"]["expired"] == 2
        finally:
            gate.set()
            service.close()


class TestBatchWindow:
    def test_leftover_rows_do_not_wait_a_fresh_window(
        self, serving_amm, request_codes, recall_gate
    ):
        """The batching window opens when the oldest queued submission
        arrived, not when the batcher wakes: a row left over from a cut
        batch, queued while the batcher was blocked on a full pool, must
        not wait another whole ``max_wait`` once the pool frees up."""
        gate, _ = recall_gate
        offset = [0.0]

        def clock():
            return time.monotonic() + offset[0]

        service = RecognitionService(
            serving_amm, max_batch_size=2, max_wait=30.0, workers=1, clock=clock
        )
        try:
            futures = service.submit_many(request_codes[:9], seeds=list(range(1, 10)))
            # Three full batches fill the gated pipeline (one in flight,
            # two in the dispatch slots) and the batcher blocks handing
            # over the fourth, with one row left in the queue.
            assert wait_for(lambda: service.queue_depth == 1)
            offset[0] = 30.0  # the leftover row's window has now closed
            gate.set()
            for future in futures:
                assert future.result(timeout=10.0) is not None
        finally:
            gate.set()
            service.close()
