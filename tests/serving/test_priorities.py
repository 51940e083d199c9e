"""Request-priority tests: ordering, shedding, stats, invariance.

Priorities reorder and shed *work* — high-priority requests coalesce
and dispatch first, and a full queue evicts queued lower-priority
requests before rejecting a higher-priority arrival — but they must
never change *answers*: the seeded-recall invariant (results identical
across arrival order, backend, worker count and batch boundary) holds
with priorities enabled, which the cross-backend matrix here pins.
"""

from __future__ import annotations


import pytest

from repro.serving import (
    BackpressureError,
    MAX_PRIORITY,
    RecognitionService,
    ServerError,
    RecognitionClient,
    start_async_server,
    stop_async_server,
)
from tests.serving.test_regressions import wait_for

class TestValidation:
    def test_priority_out_of_range_rejected(self, serving_amm, request_codes):
        with RecognitionService(serving_amm) as service:
            with pytest.raises(ValueError, match="priority"):
                service.submit(request_codes[0], priority=-1)
            with pytest.raises(ValueError, match="priority"):
                service.submit(request_codes[0], priority=MAX_PRIORITY + 1)
            with pytest.raises(ValueError, match="priority"):
                service.submit(request_codes[0], priority=1.5)

    def test_client_id_validation(self, serving_amm, request_codes):
        with RecognitionService(serving_amm) as service:
            with pytest.raises(ValueError, match="client_id"):
                service.submit(request_codes[0], client_id="")
            with pytest.raises(ValueError, match="client_id"):
                service.submit(request_codes[0], client_id="x" * 129)

    def test_http_priority_validation(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.recognise(request_codes[0], priority=42)
                assert excinfo.value.status == 400
                result = client.recognise(request_codes[0], seed=3, priority=5)
                assert "winner" in result
        finally:
            stop_async_server(server)


class TestDispatchOrdering:
    def test_high_priority_overtakes_queued_lows(
        self, serving_amm, request_codes, recall_gate
    ):
        gate, recalled = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        try:
            # Fill the gated dispatch pipeline so later traffic queues.
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            lows = [
                service.submit(request_codes[4 + index], seed=index + 1, priority=0)
                for index in range(3)
            ]
            high = service.submit(request_codes[7], seed=9, priority=9)
            gate.set()
            high.result(timeout=20.0)
            for future in blockers + lows:
                future.result(timeout=20.0)
            # The high-priority request left the queue before every
            # queued low, despite arriving last.
            assert recalled.index(9) < min(recalled.index(seed) for seed in (1, 2, 3))
        finally:
            gate.set()
            service.close()

    def test_fifo_within_a_priority_level(
        self, serving_amm, request_codes, recall_gate
    ):
        gate, recalled = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            futures = [
                service.submit(request_codes[4 + index], seed=index + 1, priority=3)
                for index in range(3)
            ]
            gate.set()
            for future in blockers + futures:
                future.result(timeout=20.0)
            assert recalled.index(1) < recalled.index(2) < recalled.index(3)
        finally:
            gate.set()
            service.close()


class TestShedding:
    def build_saturated(self, serving_amm, request_codes, gate_pair, depth=3):
        """A service whose dispatch pipeline is gated and whose queue is
        full of priority-0 requests."""
        gate, _ = gate_pair
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            max_queue_depth=depth,
            workers=1,
        )
        blockers = [
            service.submit(request_codes[index], seed=100 + index) for index in range(3)
        ]
        assert wait_for(lambda: service.queue_depth == 0)
        lows = [
            service.submit(request_codes[4 + index], seed=index + 1, priority=0)
            for index in range(depth)
        ]
        assert service.queue_depth == depth
        return service, blockers, lows

    def test_equal_priority_still_rejected(
        self, serving_amm, request_codes, recall_gate
    ):
        service, blockers, lows = self.build_saturated(
            serving_amm, request_codes, recall_gate
        )
        gate, _ = recall_gate
        try:
            with pytest.raises(BackpressureError):
                service.submit(request_codes[8], seed=50, priority=0)
            assert service.metrics.rejected == 1
            assert service.metrics.shed == 0
        finally:
            gate.set()
            service.close()

    def test_high_priority_sheds_newest_low(
        self, serving_amm, request_codes, recall_gate
    ):
        service, blockers, lows = self.build_saturated(
            serving_amm, request_codes, recall_gate
        )
        gate, _ = recall_gate
        try:
            high = service.submit(request_codes[8], seed=77, priority=5)
            # The newest low was evicted; its future failed immediately
            # with BackpressureError and the shed counter moved.
            with pytest.raises(BackpressureError):
                lows[-1].result(timeout=1.0)
            assert service.metrics.shed == 1
            assert service.metrics.rejected == 0
            assert service.queue_depth == 3
            gate.set()
            assert high.result(timeout=20.0) is not None
            for future in blockers + lows[:-1]:
                assert future.result(timeout=20.0) is not None
            assert service.stats()["requests"]["shed"] == 1
        finally:
            gate.set()
            service.close()

    def test_shedding_evicts_whole_submissions(
        self, serving_amm, request_codes, recall_gate
    ):
        """Evicting one row of a multi-row submission sheds its whole
        group: the caller's gather fails on the first shed row anyway,
        so surviving siblings would only waste engine time."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            max_queue_depth=4,
            workers=1,
        )
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            assert wait_for(lambda: service.queue_depth == 0)
            single = service.submit(request_codes[4], seed=1, priority=0)
            group = service.submit_many(
                request_codes[5:8], seeds=[2, 3, 4], priority=0
            )
            assert service.queue_depth == 4
            high = service.submit(request_codes[8], seed=77, priority=5)
            # The newest victim is a group row — the whole 3-row
            # submission is shed; the older single survives.
            assert service.metrics.shed == 3
            for future in group:
                with pytest.raises(BackpressureError):
                    future.result(timeout=1.0)
            assert not single.done()
            gate.set()
            assert high.result(timeout=20.0) is not None
            assert single.result(timeout=20.0) is not None
            for blocker in blockers:
                blocker.result(timeout=20.0)
        finally:
            gate.set()
            service.close()

    def test_multi_row_high_submission_sheds_enough(
        self, serving_amm, request_codes, recall_gate
    ):
        service, blockers, lows = self.build_saturated(
            serving_amm, request_codes, recall_gate
        )
        gate, _ = recall_gate
        try:
            highs = service.submit_many(
                request_codes[8:10], seeds=[71, 72], priority=7
            )
            shed = [future for future in lows if future.done()]
            assert len(shed) == 2
            assert service.metrics.shed == 2
            gate.set()
            for future in highs:
                assert future.result(timeout=20.0) is not None
        finally:
            gate.set()
            service.close()


class TestStats:
    def test_per_priority_sections(self, serving_amm, request_codes):
        with RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3) as service:
            service.recognise(request_codes[0], seed=1, priority=0, timeout=20.0)
            service.recognise(request_codes[1], seed=2, priority=6, timeout=20.0)
            stats = service.stats()
            assert stats["priorities"]["0"]["submitted"] == 1
            assert stats["priorities"]["6"]["completed"] == 1
            assert stats["priorities"]["6"]["latency"]["samples"] == 1
            import json

            json.dumps(stats)


class TestPriorityInvariance:
    @pytest.mark.parametrize("backend", ["serial", "fleet"])
    def test_results_identical_across_backends_with_priorities(
        self, serving_amm, request_codes, request_seeds, backend
    ):
        """The cross-backend equivalence matrix holds with priorities on:
        a request's answer is a pure function of (module, codes, seed),
        whatever priority it ran at and wherever it was solved."""
        from tests.serving.test_service_determinism import assert_request_equal

        reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        priorities = [(index * 7) % (MAX_PRIORITY + 1) for index in range(len(request_seeds))]
        with RecognitionService(
            serving_amm,
            max_batch_size=8,
            max_wait=2e-3,
            workers=2,
            backend=backend,
        ) as service:
            futures = [
                service.submit(
                    request_codes[index],
                    seed=int(request_seeds[index]),
                    priority=priorities[index],
                )
                for index in range(len(request_seeds))
            ]
            results = [future.result(timeout=60.0) for future in futures]
        for index, result in enumerate(results):
            assert_request_equal(result, reference[index])
