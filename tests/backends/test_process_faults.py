"""Process-pool fault handling: crashes fail cleanly, pools self-heal.

A worker killed mid-batch must (a) fail its in-flight requests with the
retryable :class:`~repro.backends.base.WorkerCrashedError` rather than
hanging, (b) be respawned onto the same shared-memory blocks, and (c)
leave the pool fully serviceable — no poisoned queue, no lost capacity.
These tests use a dedicated small pool (not the shared session fixture)
because they deliberately kill its workers.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.backends import ProcessPoolBackend, WorkerCrashedError
from tests.backends.conftest import build_amm


@pytest.fixture(scope="module")
def fault_amm():
    return build_amm(include_parasitics=True, input_variation=0.05)


@pytest.fixture()
def pool(fault_amm):
    backend = ProcessPoolBackend(
        fault_amm, workers=2, min_shard_size=4, max_batch_size=64
    ).prepare()
    yield backend
    backend.close()


def kill_worker(backend, index=0):
    pid = backend._handles[index].process.pid
    os.kill(pid, signal.SIGKILL)
    # Give the OS a moment to reap so liveness checks see the death.
    deadline = time.monotonic() + 5.0
    while backend._handles[index].process.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestWorkerCrash:
    def test_killed_worker_fails_retryable_and_respawns(
        self, pool, fault_amm, request_codes, request_seeds
    ):
        reference = fault_amm.recognise_batch_seeded(request_codes, request_seeds)
        kill_worker(pool, index=0)
        with pytest.raises(WorkerCrashedError) as excinfo:
            pool.recall_batch_seeded(request_codes, request_seeds)
        assert excinfo.value.retryable
        assert pool.respawns >= 1
        # The retry succeeds on the healed pool with identical results.
        result = pool.recall_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(result.winner_column, reference.winner_column)
        assert np.array_equal(result.codes, reference.codes)

    def test_kill_during_flight_does_not_hang(
        self, pool, fault_amm, request_codes, request_seeds
    ):
        """SIGKILL racing an in-flight batch either completes or fails fast."""
        import threading

        # Several dispatch rounds (~25 ms), so the kill 5 ms in lands in flight.
        big_codes = np.tile(request_codes, (48, 1))
        big_seeds = np.arange(big_codes.shape[0], dtype=np.int64)
        pid = pool._handles[0].process.pid
        killer = threading.Thread(
            target=lambda: (time.sleep(0.005), os.kill(pid, signal.SIGKILL))
        )
        killer.start()
        start = time.monotonic()
        try:
            pool.recall_batch_seeded(big_codes, big_seeds)
        except WorkerCrashedError:
            pass
        killer.join()
        assert time.monotonic() - start < 30.0, "crash handling must not hang"
        # The pool serves the next request correctly regardless of the race.
        reference = fault_amm.recognise_batch_seeded(request_codes, request_seeds)
        result = pool.recall_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(result.winner_column, reference.winner_column)

    def test_both_workers_killed_pool_recovers(
        self, pool, fault_amm, request_codes, request_seeds
    ):
        kill_worker(pool, index=0)
        kill_worker(pool, index=1)
        with pytest.raises(WorkerCrashedError):
            pool.recall_batch_seeded(request_codes, request_seeds)
        # One dispatch may only touch the shards' workers; drain any
        # remaining dead worker with a second attempt before asserting
        # full health.
        try:
            pool.recall_batch_seeded(request_codes, request_seeds)
        except WorkerCrashedError:
            pass
        reference = fault_amm.recognise_batch_seeded(request_codes, request_seeds)
        result = pool.recall_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(result.winner_column, reference.winner_column)
        assert pool.respawns >= 2

    def test_crash_does_not_poison_other_worker(
        self, pool, fault_amm, request_codes, request_seeds
    ):
        """After a crash+respawn, small batches (single shard) keep working
        on whichever worker the free queue hands out."""
        kill_worker(pool, index=1)
        with pytest.raises(WorkerCrashedError):
            pool.recall_batch_seeded(request_codes, request_seeds)
        reference = fault_amm.recognise_batch_seeded(request_codes[:3], request_seeds[:3])
        for _ in range(4):  # cycle through both workers
            result = pool.recall_batch_seeded(request_codes[:3], request_seeds[:3])
            assert np.array_equal(result.winner_column, reference.winner_column)


class TestServiceIntegration:
    def test_served_crash_maps_to_retryable_error(self, fault_amm, request_codes):
        """Through the serving stack: in-flight requests fail with the
        retryable error and the service keeps serving."""
        from repro.serving import RecognitionService

        service = RecognitionService(
            fault_amm,
            max_batch_size=8,
            max_wait=0.0,
            workers=1,
            backend="processes",
        )
        try:
            warm = service.recognise(request_codes[0], seed=1, timeout=60.0)
            backend = service.pool.backend
            os.kill(backend._handles[0].process.pid, signal.SIGKILL)
            futures = [
                service.submit(request_codes[index % 8], seed=index)
                for index in range(4)
            ]
            outcomes = {"ok": 0, "crashed": 0}
            for future in futures:
                try:
                    future.result(timeout=60.0)
                    outcomes["ok"] += 1
                except WorkerCrashedError:
                    outcomes["crashed"] += 1
            assert outcomes["crashed"] >= 1
            # The pool healed: a retry of the same request succeeds and
            # matches the pre-crash answer.
            again = service.recognise(request_codes[0], seed=1, timeout=60.0)
            assert again.winner_column == warm.winner_column
            assert again.dom_code == warm.dom_code
        finally:
            service.close()
