"""Serving determinism and backpressure (mirrors test_batched_equivalence).

Same seed ⇒ identical per-request results no matter how traffic arrives:
submission order, micro-batch window/size, and worker count must not
change any request's answer (discrete fields exactly; analog fields to
solver/BLAS precision).  Saturation must surface as an immediate, clean
:class:`BackpressureError` — never a deadlock — and the service must keep
working after the burst drains.
"""

import threading

import numpy as np
import pytest

from repro.serving import (
    BackpressureError,
    RecognitionService,
    ServiceClosedError,
)
from repro.backends.serial import SerialBackend


def gather(service, codes_batch, seeds, order=None):
    """Submit requests in ``order`` and return results in original order."""
    order = range(len(seeds)) if order is None else order
    futures = {}
    for index in order:
        futures[index] = service.submit(codes_batch[index], seed=int(seeds[index]))
    return [futures[index].result(timeout=30.0) for index in range(len(seeds))]


def assert_request_equal(left, right, rtol=1e-9):
    assert left.winner_column == right.winner_column
    assert left.winner == right.winner
    assert left.dom_code == right.dom_code
    assert left.accepted == right.accepted
    assert left.tie == right.tie
    assert np.array_equal(left.codes, right.codes)
    np.testing.assert_array_equal(left.events, right.events)
    np.testing.assert_allclose(left.column_currents, right.column_currents, rtol=rtol)


@pytest.fixture()
def reference_results(serving_amm, request_codes, request_seeds):
    """Ground truth: the seeded engine on the whole set in one batch."""
    return serving_amm.recognise_batch_seeded(request_codes, request_seeds)


class TestArrivalOrderInvariance:
    def test_reversed_and_shuffled_submission(
        self, serving_amm, request_codes, request_seeds, reference_results
    ):
        orders = [
            list(reversed(range(len(request_seeds)))),
            list(np.random.default_rng(13).permutation(len(request_seeds))),
        ]
        for order in orders:
            with RecognitionService(
                serving_amm, max_batch_size=8, max_wait=5e-3
            ) as service:
                results = gather(service, request_codes, request_seeds, order)
            for index, result in enumerate(results):
                assert_request_equal(result, reference_results[index])

    def test_interleaved_concurrent_submitters(
        self, serving_amm, request_codes, request_seeds, reference_results
    ):
        with RecognitionService(serving_amm, max_batch_size=6, max_wait=2e-3) as service:
            results = [None] * len(request_seeds)

            def submit_stripe(start):
                for index in range(start, len(request_seeds), 3):
                    results[index] = service.recognise(
                        request_codes[index], seed=int(request_seeds[index]), timeout=30.0
                    )

            threads = [
                threading.Thread(target=submit_stripe, args=(start,))
                for start in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for index, result in enumerate(results):
            assert_request_equal(result, reference_results[index])


class TestBatchBoundaryInvariance:
    @pytest.mark.parametrize("max_batch_size,max_wait", [(1, 0.0), (3, 0.0), (64, 5e-3)])
    def test_results_unchanged(
        self,
        serving_amm,
        request_codes,
        request_seeds,
        reference_results,
        max_batch_size,
        max_wait,
    ):
        with RecognitionService(
            serving_amm, max_batch_size=max_batch_size, max_wait=max_wait
        ) as service:
            results = gather(service, request_codes, request_seeds)
        for index, result in enumerate(results):
            assert_request_equal(result, reference_results[index])


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_unchanged(
        self, serving_amm, request_codes, request_seeds, reference_results, workers
    ):
        with RecognitionService(
            serving_amm,
            max_batch_size=64,
            max_wait=10e-3,
            workers=workers,
            backend="fleet",
        ) as service:
            results = gather(service, request_codes, request_seeds)
        for index, result in enumerate(results):
            assert_request_equal(result, reference_results[index])

    def test_sharded_dispatch_matches_reference(
        self, serving_amm, request_codes, request_seeds, reference_results
    ):
        """Force a batch large enough to split across several workers."""
        pool_service = RecognitionService(
            serving_amm,
            max_batch_size=64,
            max_wait=20e-3,
            workers=3,
            backend="fleet",
            backend_options={"min_shard_size": 4},
        )
        with pool_service as service:
            results = gather(service, request_codes, request_seeds)
        for index, result in enumerate(results):
            assert_request_equal(result, reference_results[index])


class TestSaturation:
    def test_queue_full_raises_cleanly_and_recovers(
        self, serving_amm, request_codes, monkeypatch
    ):
        gate = threading.Event()
        original = SerialBackend.recall_batch_seeded

        def gated_recall(self, codes_batch, request_seeds):
            gate.wait(timeout=20.0)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", gated_recall)
        service = RecognitionService(
            serving_amm, max_batch_size=2, max_wait=0.0, max_queue_depth=3, workers=1
        )
        try:
            futures = []
            saw_backpressure = False
            # The gated worker plus bounded dispatch slots cap what leaves
            # the queue, so a bounded burst must hit BackpressureError.
            for _ in range(64):
                try:
                    futures.append(service.submit(request_codes[0], seed=1))
                except BackpressureError:
                    saw_backpressure = True
                    break
            assert saw_backpressure, "saturated queue never rejected"
            assert service.metrics.rejected >= 1
            gate.set()
            for future in futures:
                result = future.result(timeout=20.0)
                assert result.winner_column == futures[0].result(20.0).winner_column
            # After draining, the service accepts and serves new requests.
            fresh = service.recognise(request_codes[1], seed=2, timeout=20.0)
            assert 0 <= fresh.winner_column < serving_amm.crossbar.columns
        finally:
            gate.set()
            service.close()

    def test_submit_many_is_all_or_nothing(self, serving_amm, request_codes, monkeypatch):
        """A multi-row submission that cannot fit entirely is fully rejected."""
        gate = threading.Event()
        original = SerialBackend.recall_batch_seeded

        def gated_recall(self, codes_batch, request_seeds):
            gate.wait(timeout=20.0)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", gated_recall)
        service = RecognitionService(
            serving_amm, max_batch_size=2, max_wait=0.0, max_queue_depth=4, workers=1
        )
        try:
            # Saturate the dispatch pipeline (gated worker + bounded
            # slots) until requests start staying in the queue.
            admitted = []
            for attempt in range(32):
                if service.queue_depth >= 1:
                    break
                admitted.append(service.submit(request_codes[attempt % 8], seed=attempt))
            assert service.queue_depth >= 1
            before = service.metrics.submitted
            # 4 rows fit the queue bound structurally, but not on top of
            # what is already pending: the whole batch must be rejected.
            with pytest.raises(BackpressureError):
                service.submit_many(request_codes[:4], seeds=[1, 2, 3, 4])
            assert service.metrics.submitted == before
            assert service.metrics.rejected == 4
            # More rows than the queue can ever hold is a permanent
            # error, not a retry-later rejection.
            with pytest.raises(ValueError, match="stream.*the request"):
                service.submit_many(request_codes[:5], seeds=range(5))
            gate.set()
            for future in admitted:
                future.result(timeout=20.0)
        finally:
            gate.set()
            service.close()

    def test_closed_service_rejects(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=4)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(request_codes[0])

    def test_close_timeout_fails_stranded_futures(
        self, serving_amm, request_codes, monkeypatch
    ):
        """A timed-out drain must resolve queued futures with an error,
        never leave them hanging."""
        gate = threading.Event()
        original = SerialBackend.recall_batch_seeded

        def gated_recall(self, codes_batch, request_seeds):
            gate.wait(timeout=20.0)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(SerialBackend, "recall_batch_seeded", gated_recall)
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=16, workers=1
        )
        futures = [service.submit(request_codes[0], seed=index) for index in range(10)]
        closer = threading.Thread(target=service.close, kwargs={"timeout": 0.2})
        closer.start()
        # Let close() hit its timeout while the worker is still gated,
        # then release the in-flight batches.
        closer.join(timeout=2.0)
        gate.set()
        closer.join(timeout=20.0)
        assert not closer.is_alive()
        outcomes = {"served": 0, "failed": 0}
        for future in futures:
            try:
                future.result(timeout=20.0)
                outcomes["served"] += 1
            except ServiceClosedError:
                outcomes["failed"] += 1
        assert outcomes["served"] + outcomes["failed"] == 10
        assert outcomes["failed"] >= 1, "timed-out drain should abandon the tail"

    def test_invalid_codes_rejected_synchronously(self, serving_amm):
        with RecognitionService(serving_amm, max_batch_size=4) as service:
            with pytest.raises(ValueError):
                service.submit(np.zeros(7, dtype=int))
            with pytest.raises(ValueError):
                service.submit(np.full(32, 99, dtype=int))
            with pytest.raises(ValueError):
                service.submit(np.zeros(32, dtype=int), seed=-5)


def test_stochastic_module_refused(request_codes):
    from tests.serving.conftest import build_amm

    amm = build_amm(stochastic_dwn=True, include_parasitics=False)
    with pytest.raises(ValueError, match="deterministic"):
        RecognitionService(amm)


def test_unreset_neurons_refused(request_codes):
    """reset_neurons=False is equally draw-order dependent: fail at
    construction, not on the first request."""
    from tests.serving.conftest import build_amm

    amm = build_amm(include_parasitics=False)
    amm.wta.reset_neurons = False
    with pytest.raises(ValueError, match="deterministic"):
        RecognitionService(amm)
