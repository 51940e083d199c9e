"""Dispatch-adapter tests: backend wiring, error propagation, deadlines."""

import time

import numpy as np
import pytest

from repro.backends import DEFAULT_BACKEND, SerialBackend
from repro.serving.metrics import ServiceMetrics
from repro.serving.service import DeadlineExceededError
from repro.serving.workers import FutureSubmission, ShardedWorkerPool


class Pending:
    """A one-row submission, its segment and its row's future."""

    def __init__(self, codes, seed, deadline=None):
        self.submission = FutureSubmission(
            np.asarray(codes, dtype=np.int64)[None, :],
            np.array([seed], dtype=np.int64),
            deadline=deadline,
        )
        self.future = self.submission.futures[0]
        self.segment = (self.submission, 0, 1)


def segments(batch):
    return [pending.segment for pending in batch]


class TestBackendWiring:
    def test_default_backend_is_serial(self, serving_amm):
        pool = ShardedWorkerPool(serving_amm)
        try:
            capabilities = pool.backend.capabilities()
            assert capabilities.name == DEFAULT_BACKEND == "serial"
            assert capabilities.workers == 1
            assert len(pool) == 1
        finally:
            pool.close()

    def test_backend_name_resolved_through_registry(self, serving_amm):
        pool = ShardedWorkerPool(serving_amm, workers=1, backend="serial")
        try:
            assert pool.backend.capabilities().name == "serial"
        finally:
            pool.close()

    def test_unknown_backend_rejected(self, serving_amm):
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedWorkerPool(serving_amm, backend="not-a-backend")

    def test_shared_backend_instance_left_open(self, serving_amm):
        backend = SerialBackend(serving_amm).prepare()
        try:
            pool = ShardedWorkerPool(serving_amm, backend=backend)
            pool.close()
            # The pool must not close a backend it does not own.
            result = backend.recall_batch_seeded(
                np.zeros((1, serving_amm.crossbar.rows), dtype=np.int64), [1]
            )
            assert len(result) == 1
        finally:
            backend.close()


class TestDispatch:
    def test_dispatch_resolves_every_future(self, serving_amm, request_codes, request_seeds):
        pool = ShardedWorkerPool(serving_amm)
        try:
            batch = [
                Pending(codes, int(seed))
                for codes, seed in zip(request_codes, request_seeds)
            ]
            pool.dispatch(segments(batch))
            reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
            for index, pending in enumerate(batch):
                result = pending.future.result(timeout=20.0)
                assert result.winner_column == reference[index].winner_column
                assert result.dom_code == reference[index].dom_code
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", ["serial", "fleet"])
    def test_results_identical_across_backends(
        self, serving_amm, request_codes, request_seeds, backend
    ):
        reference = serving_amm.recognise_batch_seeded(request_codes, request_seeds)
        pool = ShardedWorkerPool(
            serving_amm, workers=2, backend=backend, min_shard_size=4
        )
        try:
            batch = [
                Pending(codes, int(seed))
                for codes, seed in zip(request_codes, request_seeds)
            ]
            pool.dispatch(segments(batch))
            for index, pending in enumerate(batch):
                result = pending.future.result(timeout=20.0)
                assert result.winner_column == reference[index].winner_column
                assert result.dom_code == reference[index].dom_code
                # Analog outputs to solver precision: a different shard
                # shape may take a different BLAS kernel path than the
                # reference engine in the last few ulps.
                np.testing.assert_allclose(
                    result.column_currents,
                    reference[index].column_currents,
                    rtol=1e-12,
                )
        finally:
            pool.close()

    def test_worker_error_propagates_to_futures(self, serving_amm, request_codes):
        pool = ShardedWorkerPool(serving_amm, workers=1)
        try:
            bad = [Pending(np.full(32, 99), 1)]  # out-of-range codes
            pool.dispatch(segments(bad))
            with pytest.raises(ValueError):
                bad[0].future.result(timeout=20.0)
            assert pool.metrics.failed == 1
            # The dispatcher thread survives the error and serves the next batch.
            good = [Pending(request_codes[0], 1)]
            pool.dispatch(segments(good))
            good[0].future.result(timeout=20.0)
        finally:
            pool.close()

    def test_close_is_idempotent_and_rejects_dispatch(self, serving_amm, request_codes):
        pool = ShardedWorkerPool(serving_amm)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.dispatch([Pending(request_codes[0], 1).segment])

    def test_cancelled_future_does_not_kill_dispatcher(self, serving_amm, request_codes):
        pool = ShardedWorkerPool(serving_amm, workers=1)
        try:
            cancelled = Pending(request_codes[0], 1)
            assert cancelled.future.cancel()
            survivor = Pending(request_codes[1], 2)
            pool.dispatch(segments([cancelled, survivor]))
            # The dispatcher must skip the cancelled future, serve the
            # rest, and stay alive for later batches.
            assert survivor.future.result(timeout=20.0) is not None
            later = Pending(request_codes[2], 3)
            pool.dispatch(segments([later]))
            assert later.future.result(timeout=20.0) is not None
        finally:
            pool.close()

    def test_empty_dispatch_is_noop(self, serving_amm):
        pool = ShardedWorkerPool(serving_amm, workers=1)
        try:
            pool.dispatch([])
        finally:
            pool.close()


class TestDeadlines:
    def test_expired_requests_dropped_before_dispatch(
        self, serving_amm, request_codes
    ):
        metrics = ServiceMetrics()
        pool = ShardedWorkerPool(serving_amm, workers=1, metrics=metrics)
        try:
            expired = Pending(
                request_codes[0], 1, deadline=time.monotonic() - 0.01
            )
            live = Pending(request_codes[1], 2)
            pool.dispatch(segments([expired, live]))
            with pytest.raises(DeadlineExceededError):
                expired.future.result(timeout=20.0)
            assert live.future.result(timeout=20.0) is not None
            assert metrics.expired == 1
            assert metrics.completed == 1
        finally:
            pool.close()

    def test_unexpired_deadline_served_normally(self, serving_amm, request_codes):
        pool = ShardedWorkerPool(serving_amm, workers=1)
        try:
            pending = Pending(
                request_codes[0], 1, deadline=time.monotonic() + 30.0
            )
            pool.dispatch(segments([pending]))
            assert pending.future.result(timeout=20.0) is not None
            assert pool.metrics.expired == 0
        finally:
            pool.close()


class TestSerialBackendEngines:
    def test_backend_engine_is_private_and_prefactorised(self, serving_amm):
        backend = SerialBackend(serving_amm).prepare()
        try:
            assert backend._engine.prepared
            assert backend._engine is not serving_amm.solver.batch_engine
        finally:
            backend.close()
