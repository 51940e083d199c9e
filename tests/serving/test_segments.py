"""Batch-granular serving: one outcome per submission segment.

The service queues one entry per submission and the worker pool
resolves one outcome per segment (a contiguous row range that rode one
micro-batch).  These tests pin that the front-end paths create no
per-row futures, that a batch-granular submission's segments tile its
rows exactly once, that cancellation releases quota at once, and that
the column-wise JSON projection is byte-identical to the row-wise one.
"""

from __future__ import annotations

import concurrent.futures
import threading

import numpy as np
import pytest

from repro.serving import (
    BackpressureError,
    BinaryRecognitionClient,
    QuotaConfig,
    RecognitionClient,
    RecognitionService,
    start_async_server,
    stop_async_server,
)
from repro.serving.protocol import encode_json, result_rows, result_to_json
from tests.serving.test_regressions import wait_for

ROWS = 48
MAX_BATCH = 8


class Collector:
    """A ``deliver`` callback recording ``(start, stop, outcome)``."""

    def __init__(self) -> None:
        self.segments = []
        self.lock = threading.Lock()

    def __call__(self, start, stop, outcome) -> None:
        with self.lock:
            self.segments.append((start, stop, outcome))

    def rows(self) -> int:
        with self.lock:
            return sum(stop - start for start, stop, _ in self.segments)


@pytest.fixture()
def future_constructions(monkeypatch):
    """Counts every ``concurrent.futures.Future`` built in the process."""
    count = [0]
    original = concurrent.futures.Future.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.Future, "__init__", counting)
    return count


class TestNoPerRowFutures:
    """A request on the front end costs O(segments) futures, not O(rows)."""

    @pytest.fixture()
    def server(self, serving_amm):
        service = RecognitionService(
            serving_amm, max_batch_size=MAX_BATCH, max_wait=1e-3, workers=1
        )
        server = start_async_server(service, port=0, binary_port=0)
        yield server
        stop_async_server(server)

    def assert_segment_bounded(self, server, created, before):
        batches = server.service.metrics.batches - before
        assert batches >= ROWS // MAX_BATCH
        assert created <= batches, (
            f"{created} futures for {ROWS} rows in {batches} micro-batches"
        )

    def test_buffered_json(
        self, server, request_codes, future_constructions
    ):
        codes = np.tile(request_codes, (2, 1))[:ROWS]
        with RecognitionClient("127.0.0.1", server.port) as client:
            client.healthz()
            before_batches = server.service.metrics.batches
            before = future_constructions[0]
            results = client.recognise_many(codes, seeds=list(range(ROWS)))
            created = future_constructions[0] - before
        assert len(results) == ROWS
        self.assert_segment_bounded(server, created, before_batches)

    def test_ndjson_stream(self, server, request_codes, future_constructions):
        codes = np.tile(request_codes, (2, 1))[:ROWS]
        with RecognitionClient("127.0.0.1", server.port) as client:
            client.healthz()
            before_batches = server.service.metrics.batches
            before = future_constructions[0]
            lines = list(client.recognise_stream(codes, seeds=list(range(ROWS))))
            created = future_constructions[0] - before
        assert [line["index"] for line in lines[:-1]] == list(range(ROWS))
        assert lines[-1]["ok"] == ROWS
        self.assert_segment_bounded(server, created, before_batches)

    def test_binary(self, server, request_codes, future_constructions):
        codes = np.tile(request_codes, (2, 1))[:ROWS]
        with BinaryRecognitionClient("127.0.0.1", server.binary_port) as client:
            before_batches = server.service.metrics.batches
            before = future_constructions[0]
            answer = client.recognise_batch(codes, seeds=list(range(ROWS)))
            created = future_constructions[0] - before
        assert answer.ok == ROWS
        self.assert_segment_bounded(server, created, before_batches)

    def test_per_row_api_still_builds_one_future_per_row(
        self, serving_amm, request_codes, future_constructions
    ):
        with RecognitionService(serving_amm, max_batch_size=MAX_BATCH) as service:
            before = future_constructions[0]
            futures = service.submit_many(request_codes[:10], seeds=list(range(10)))
            assert future_constructions[0] - before == 10
            for future in futures:
                future.result(timeout=20.0)


class TestSegmentOutcomes:
    def test_segments_tile_the_rows_and_match_the_engine(
        self, serving_amm, request_codes, request_seeds
    ):
        collector = Collector()
        with RecognitionService(
            serving_amm, max_batch_size=5, max_wait=1e-3
        ) as service:
            service.submit_batch(request_codes, request_seeds, collector)
            assert wait_for(lambda: collector.rows() == len(request_codes))
            served = np.zeros(len(request_codes), dtype=int)
            reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
            for start, stop, outcome in collector.segments:
                assert 0 < stop - start <= 5
                served[start:stop] += 1
                assert len(outcome) == stop - start
                np.testing.assert_array_equal(outcome.winner, reference.winner[start:stop])
                np.testing.assert_array_equal(
                    outcome.dom_code, reference.dom_code[start:stop]
                )
            assert (served == 1).all()
            assert service.stats()["requests"]["completed"] == len(request_codes)

    def test_empty_submission_leaves_no_queue_entry(
        self, serving_amm, request_codes
    ):
        with RecognitionService(serving_amm, max_batch_size=4) as service:
            empty = np.zeros((0, request_codes.shape[1]), dtype=np.int64)
            assert service.submit_many(empty, seeds=[]) == []
            assert service._pending.drain() == []
            assert service.recognise(request_codes[0], seed=1, timeout=20.0)

    def test_cancel_skips_queued_rows_and_releases_quota_at_once(
        self, serving_amm, request_codes, recall_gate
    ):
        gate, recalled = recall_gate
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=64, max_inflight=64),
        )
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            collector = Collector()
            submission = service.submit_batch(
                request_codes[:6], list(range(1, 7)), collector, client_id="leaver"
            )
            assert service.quotas.inflight("leaver") == 6
            assert submission.cancel() == 6
            # The slots come back now, not when the batcher reaches the rows.
            assert service.quotas.inflight("leaver") == 0
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert wait_for(lambda: service.metrics.cancelled == 6)
            assert not set(recalled) & set(range(1, 7))
            assert collector.segments == []
        finally:
            gate.set()
            service.close()

    def test_shed_submission_gets_one_error_outcome(
        self, serving_amm, request_codes, recall_gate
    ):
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=4, workers=1
        )
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            collector = Collector()
            service.submit_batch(request_codes[:4], [1, 2, 3, 4], collector)
            high = service.submit(request_codes[5], seed=9, priority=3)
            assert len(collector.segments) == 1
            start, stop, outcome = collector.segments[0]
            assert (start, stop) == (0, 4)
            assert isinstance(outcome, BackpressureError)
            assert service.metrics.shed == 4
            gate.set()
            assert high.result(timeout=20.0) is not None
            for blocker in blockers:
                blocker.result(timeout=20.0)
        finally:
            gate.set()
            service.close()


def test_column_projection_matches_row_projection(
    serving_amm, request_codes, request_seeds
):
    batch = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
    rows = result_rows(batch)
    assert rows == [result_to_json(result) for result in batch]
    assert encode_json({"results": rows}) == encode_json(
        {"results": [result_to_json(result) for result in batch]}
    )
    assert result_rows(batch[3:7]) == rows[3:7]
