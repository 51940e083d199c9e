"""Chaos suite: proxy-injected faults against a fleet of adopted agents.

Every test routes one worker link through a
:class:`tests.backends.chaos.ChaosProxy` and injects a specific failure
mode, pinning the transport's semantics:

* **kill** — the proxied worker vanishes (connections cut, dials
  refused): its in-flight shard retries on the survivor, answers stay
  correct, and the supervisor reconnects once the worker returns;
* **partition** — bytes stop flowing but sockets stay "connected": only
  the io-timeout / heartbeat can notice; requests keep being served by
  the reachable replica and the partitioned link is detected dead;
* **slow worker** — delayed forwarding: *slow is not dead*; the shard
  completes (no spurious failover) as long as the worker answers within
  the io budget;
* **close-at-byte-N** — the pipe is cut mid-frame (a torn write): the
  backend treats the link as crashed, retries on the survivor and never
  delivers a corrupt result;
* **served crash** — the only replica behind a running service dies:
  queued requests fail with the retryable ``WorkerCrashedError`` (HTTP
  503), and the service answers the same request identically once the
  worker is back.
"""

from __future__ import annotations

import time

import pytest

from repro.backends import FleetSupervisor, WorkerCrashedError, WorkerServer
from tests.backends.chaos import ChaosProxy
from tests.backends.test_equivalence import assert_results_equal
from tests.backends.test_remote import wait_until

@pytest.fixture()
def chaos_setup(backend_amm):
    """Two workers, one behind a chaos proxy; backend with fast knobs.

    Returns ``(backend, proxy, direct_worker, proxied_worker)``; the
    proxied link is always ``backend._replicas[0].link``.
    """
    proxied_worker = WorkerServer().start()
    direct_worker = WorkerServer().start()
    proxy = ChaosProxy(proxied_worker.address)
    backend = FleetSupervisor(
        backend_amm,
        worker_addresses=[proxy.address, direct_worker.address],
        min_shard_size=4,
        heartbeat_interval=0.1,
        backoff_base=0.02,
        backoff_max=0.2,
        connect_timeout=2.0,
        io_timeout=2.0,
    ).prepare()
    yield backend, proxy, direct_worker, proxied_worker
    backend.close()
    proxy.close()
    direct_worker.close()
    proxied_worker.close()


class TestKill:
    def test_kill_mid_service_retries_and_recovers(
        self, backend_amm, chaos_setup, request_codes, request_seeds
    ):
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        assert_results_equal(
            backend.recall_batch_seeded(request_codes, request_seeds), reference
        )
        proxy.refuse(kill_existing=True)  # the worker "crashes"
        result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference)
        assert wait_until(lambda: not backend._replicas[0].link.alive)
        # The worker comes back: the supervisor reconnects and the link
        # serves again (no restart of the backend needed).
        proxy.accept()
        assert wait_until(lambda: backend._replicas[0].link.alive), "no reconnect after heal"
        assert backend.reconnects >= 1
        assert_results_equal(
            backend.recall_batch_seeded(request_codes, request_seeds), reference
        )

    def test_kill_during_recall_never_corrupts(
        self, backend_amm, chaos_setup, request_codes, request_seeds
    ):
        """Repeated kills timed to land during dispatch: every answer is
        either correct or a retryable error — never wrong."""
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        for attempt in range(3):
            proxy.accept()
            wait_until(lambda: backend._replicas[0].link.alive, timeout=5.0)
            proxy.refuse(kill_existing=True)
            try:
                result = backend.recall_batch_seeded(request_codes, request_seeds)
            except WorkerCrashedError:
                continue  # acceptable only if *no* replica remained
            assert_results_equal(result, reference)


class TestPartition:
    def test_partition_detected_and_survivor_serves(
        self, backend_amm, chaos_setup, request_codes, request_seeds
    ):
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        proxy.partition()
        # The partitioned socket still looks connected; the recall's
        # io-timeout (2 s) fires, the shard retries on the survivor.
        start = time.monotonic()
        result = backend.recall_batch_seeded(request_codes, request_seeds)
        elapsed = time.monotonic() - start
        assert_results_equal(result, reference)
        assert elapsed < 10.0  # bounded by io_timeout + retry, not a hang
        assert wait_until(lambda: not backend._replicas[0].link.alive)
        proxy.heal()
        assert wait_until(lambda: backend._replicas[0].link.alive), (
            "supervisor never reconnected after the partition healed"
        )

    def test_heartbeat_detects_idle_partition(self, chaos_setup):
        """A partition on an *idle* link is found by the heartbeat alone
        (no request traffic needed) within a few intervals."""
        backend, proxy, _, _ = chaos_setup
        assert backend._replicas[0].link.alive
        proxy.partition()
        # heartbeat_interval=0.1, io_timeout=2.0: the PING blocks, times
        # out, and the link is marked dead without any recall in flight.
        assert wait_until(lambda: not backend._replicas[0].link.alive, timeout=15.0), (
            "heartbeat never detected the partitioned link"
        )


class TestSlowWorker:
    def test_slow_is_not_dead(
        self, backend_amm, chaos_setup, request_codes, request_seeds
    ):
        """A worker answering within the io budget is used, not failed
        over — latency rises, liveness does not flap."""
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        proxy.delay(0.15)  # well under io_timeout=2.0
        before = backend.retried_shards
        result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference)
        assert backend.retried_shards == before, "slow worker was failed over"
        assert backend._replicas[0].link.alive

    def test_heartbeat_tolerates_slow_link(self, chaos_setup):
        """Regression: the idle-link heartbeat used to probe with a short
        window (0.25 s) instead of the io budget, so a slow-but-alive
        link whose PONG round trip exceeded the window was declared dead
        — and the next recall failed over for no reason.  Liveness is
        defined by ``io_timeout`` alone."""
        backend, proxy, _, _ = chaos_setup
        proxy.delay(0.3)  # PING round trip ~0.6 s: slow, not dead
        # heartbeat_interval=0.1: several probes hit the slow link.
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            assert backend._replicas[0].link.alive, (
                "heartbeat declared a slow-but-alive link dead"
            )
            time.sleep(0.05)

    def test_slower_than_io_timeout_fails_over(
        self, backend_amm, chaos_setup, request_codes, request_seeds
    ):
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        proxy.delay(5.0)  # beyond io_timeout=2.0: indistinguishable from dead
        result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference)
        assert not backend._replicas[0].link.alive
        proxy.delay(0.0)


class TestTornWrites:
    @pytest.mark.parametrize("cut_at", [3, 19, 200])
    def test_close_at_byte_n_retries_cleanly(
        self, backend_amm, chaos_setup, request_codes, request_seeds, cut_at
    ):
        """The pipe dies after exactly N bytes of the next command —
        inside the frame prefix (3), just past it (19), or mid-arrays
        (200).  The shard retries on the survivor; results stay exact."""
        backend, proxy, _, _ = chaos_setup
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        proxy.delay(0.05)  # slow the pipe so the cut lands mid-exchange
        proxy.close_after(cut_at)
        result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference)
        assert not backend._replicas[0].link.alive
        proxy.delay(0.0)


class TestServiceIntegration:
    def test_served_crash_maps_to_retryable_error(self, backend_amm, request_codes):
        """Through the serving stack: with its only replica gone, queued
        requests fail with the retryable error; once the worker is back
        the same request gets the pre-crash answer."""
        from repro.serving import RecognitionService

        worker = WorkerServer().start()
        proxy = ChaosProxy(worker.address)
        service = RecognitionService(
            backend_amm,
            max_batch_size=8,
            max_wait=0.0,
            backend="fleet",
            backend_options={
                "worker_addresses": [proxy.address],
                "heartbeat_interval": 0.1,
                "backoff_base": 0.02,
                "backoff_max": 0.2,
                "connect_timeout": 2.0,
                "io_timeout": 2.0,
            },
        )
        try:
            warm = service.recognise(request_codes[0], seed=1, timeout=30.0)
            link = service.pool.backend._replicas[0].link
            proxy.refuse(kill_existing=True)  # the worker "crashes"
            futures = [
                service.submit(request_codes[index % 8], seed=index)
                for index in range(4)
            ]
            crashed = []
            for future in futures:
                try:
                    future.result(timeout=30.0)
                except WorkerCrashedError as error:
                    crashed.append(error)
            assert crashed, "no queued request saw the crash"
            assert all(error.retryable for error in crashed)
            proxy.accept()  # the worker is back
            assert wait_until(lambda: link.alive), "no reconnect after the crash"
            again = service.recognise(request_codes[0], seed=1, timeout=30.0)
            assert again.winner_column == warm.winner_column
            assert again.dom_code == warm.dom_code
        finally:
            service.close()
            proxy.close()
            worker.close()

    def test_crash_classifies_as_retryable_503(self):
        from repro.serving.protocol import classify_error

        error = WorkerCrashedError("no routable remote replica remains")
        assert classify_error(error) == (503, "unavailable")
        assert error.retryable
