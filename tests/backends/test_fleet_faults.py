"""Chaos matrix for the fleet control plane.

Every scenario drives a real :class:`~repro.backends.fleet
.FleetSupervisor` against one direct worker (the survivor) and one
worker behind a :class:`~tests.backends.chaos.ChaosProxy`, injects a
fault *during* a control-plane transition, and asserts two things: the
fleet recovers (the event is absorbed, not escalated), and the batch
results stay bit-identical to the serial reference — membership events
move capacity, never correctness.

The matrix:

* **kill-during-drain** — the drained replica dies while its in-flight
  shard is still being waited out; the shard retries on the survivor,
  the drain returns, and the worker readmits cleanly after restart.
* **join-then-kill-the-joiner** — a worker joins a running fleet, takes
  traffic, then dies; its shards fail over to the original member.
* **re-spec with one partitioned replica** — the rolling spec push hits
  a partitioned replica: it is reported lost, the roll completes on the
  reachable members, and the healed replica reconnects with the *new*
  spec.
* **torn JOIN frame** — a control-socket client tears mid-frame; the
  control server survives and keeps serving admin verbs.

Plus the slow / partitioned / half-open / dead distinction: with the
``pause()``/``resume()`` primitive, all four liveness shapes are pinned
as individually different behaviours.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.backends import FleetAdminClient, FleetSupervisor, WorkerServer, wire
from tests.backends.chaos import ChaosProxy
from tests.backends.test_equivalence import assert_results_equal
from tests.backends.test_remote import wait_until


@pytest.fixture()
def survivor_and_proxied(backend_amm):
    """One direct worker, one behind a chaos proxy, and a fast fleet.

    The fleet's io budget is deliberately short (2.5 s) so partition and
    half-open scenarios resolve inside the test budget; the proxy delays
    used by the scenarios stay well under it (slow != dead).
    """
    survivor = WorkerServer().start()
    upstream = WorkerServer().start()
    proxy = ChaosProxy(upstream.address)
    fleet = FleetSupervisor(
        backend_amm,
        worker_addresses=[survivor.address, proxy.address],
        min_shard_size=2,
        heartbeat_interval=0.1,
        backoff_base=0.02,
        backoff_max=0.2,
        connect_timeout=2.0,
        io_timeout=2.5,
        control=("127.0.0.1", 0),
    ).prepare()
    yield fleet, survivor, upstream, proxy
    fleet.close()
    proxy.close()
    upstream.close()
    survivor.close()


class TestKillDuringDrain:
    def test_drain_survives_replica_death_mid_flight(
        self,
        survivor_and_proxied,
        request_codes,
        request_seeds,
        reference_results,
    ):
        fleet, survivor, upstream, proxy = survivor_and_proxied
        proxied = fleet._find(proxy.address)
        proxy.delay(0.4)  # keep the proxied shard in flight long enough

        batch_result = {}

        def run_batch():
            batch_result["value"] = fleet.recall_batch_seeded(
                request_codes, request_seeds
            )

        batch = threading.Thread(target=run_batch)
        batch.start()
        # Wait until the proxied replica actually holds a shard …
        assert wait_until(lambda: proxied.link.lock.locked(), timeout=5.0)

        drain_done = threading.Event()
        drain_error = {}

        def run_drain():
            try:
                fleet.drain(proxy.address, timeout=10.0)
            except Exception as error:  # pragma: no cover - fails the test
                drain_error["value"] = error
            finally:
                drain_done.set()

        drainer = threading.Thread(target=run_drain)
        drainer.start()
        # … then kill it while the drain is waiting the shard out.
        proxy.refuse(kill_existing=True)
        batch.join(timeout=30.0)
        drainer.join(timeout=30.0)
        assert drain_done.is_set() and not drain_error
        # The dying shard failed over to the survivor: same bits.
        assert_results_equal(batch_result["value"], reference_results)
        assert fleet.retried_shards >= 1
        assert proxied.state in ("dead", "drained")  # dead link, excluded

        # Recovery: worker returns, supervisor reconnects, readmit works.
        proxy.accept()
        proxy.delay(0.0)
        assert wait_until(lambda: proxied.link.alive, timeout=10.0)
        assert fleet.join(proxy.address)["state"] == "live"
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)


class TestJoinThenKillTheJoiner:
    def test_joiner_death_fails_over_to_original_member(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        anchor = WorkerServer().start()
        upstream = WorkerServer().start()
        proxy = ChaosProxy(upstream.address)
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[anchor.address],
            min_shard_size=2,
            heartbeat_interval=0.1,
            backoff_base=0.02,
            backoff_max=0.2,
            connect_timeout=2.0,
            io_timeout=2.5,
        ).prepare()
        try:
            assert fleet.join(proxy.address)["state"] == "live"
            joiner = fleet._find(proxy.address)
            # The joiner takes traffic …
            result = fleet.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
            assert wait_until(lambda: upstream.commands_served > 0)
            # … then dies; routing falls back to the original member.
            proxy.refuse(kill_existing=True)
            assert wait_until(lambda: not joiner.link.alive, timeout=10.0)
            result = fleet.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
            assert fleet.fleet_stats()["counters"]["joins"] == 1
        finally:
            fleet.close()
            proxy.close()
            upstream.close()
            anchor.close()


class TestRespecWithPartitionedReplica:
    def test_partitioned_replica_reported_lost_then_respecced_on_heal(
        self,
        survivor_and_proxied,
        request_codes,
        request_seeds,
        reference_results,
    ):
        fleet, survivor, upstream, proxy = survivor_and_proxied
        proxied = fleet._find(proxy.address)
        proxy.partition()
        report = {f"{entry['address']}": entry["outcome"] for entry in fleet.respec()}
        survivor_key = f"{survivor.address[0]}:{survivor.address[1]}"
        proxied_key = f"{proxy.address[0]}:{proxy.address[1]}"
        assert report[survivor_key] == "updated"
        assert report[proxied_key] == "lost"
        assert fleet.spec_version == 1
        # The fleet keeps serving on the updated member, bit-identically.
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)
        # Heal: the supervisor reconnects *with the new spec* and the
        # replica rejoins routing — same bits from both members.
        proxy.heal()
        assert wait_until(lambda: proxied.link.alive, timeout=10.0)
        served_before = upstream.commands_served
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)
        assert wait_until(lambda: upstream.commands_served > served_before)


class TestTornJoinFrame:
    def test_control_server_survives_torn_frame(self, fleet_backend):
        address = fleet_backend.control_address
        sock = socket.create_connection(address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            wire.send_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            kind, _, _, _ = wire.recv_frame(sock)
            assert kind == wire.HELLO
            # A JOIN frame whose prefix promises more header bytes than
            # will ever arrive: the handler sees EOF mid-frame.
            prefix = struct.Struct("<4sBHIQ").pack(
                wire.MAGIC, wire.JOIN, wire.PROTOCOL_VERSION, 512, 0
            )
            sock.sendall(prefix + b'{"address": "127.')
        finally:
            sock.close()
        # The control plane is unaffected: new admin connections work and
        # the fleet still serves both verbs and traffic.
        with FleetAdminClient(address) as admin:
            assert admin.status()["routable"] == 2

    def test_control_server_survives_garbage_magic(self, fleet_backend):
        sock = socket.create_connection(fleet_backend.control_address, timeout=5.0)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
        finally:
            sock.close()
        with FleetAdminClient(fleet_backend.control_address) as admin:
            assert admin.status()["routable"] == 2


class TestLivenessShapes:
    """Slow, partitioned, half-open and dead are four pinned behaviours."""

    def test_slow_is_not_dead(
        self, survivor_and_proxied, request_codes, request_seeds, reference_results
    ):
        fleet, _, _, proxy = survivor_and_proxied
        proxy.delay(0.3)  # well under io_timeout
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)
        proxied = fleet._find(proxy.address)
        assert proxied.link.alive
        assert fleet.reconnects == 0 and fleet.retried_shards == 0

    def test_partition_kills_in_flight_shard_and_retries(
        self, survivor_and_proxied, request_codes, request_seeds, reference_results
    ):
        fleet, _, _, proxy = survivor_and_proxied
        proxy.partition()
        # The in-flight shard times out (io budget), fails over to the
        # survivor, and the link is declared dead — unlike mere slowness.
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)
        assert fleet.retried_shards >= 1
        proxied = fleet._find(proxy.address)
        assert not proxied.link.alive

    def test_half_open_reconnect_stalls_without_hanging_the_fleet(
        self, survivor_and_proxied, request_codes, request_seeds, reference_results
    ):
        fleet, _, _, proxy = survivor_and_proxied
        proxied = fleet._find(proxy.address)
        # Kill the replica, then turn the proxy half-open: reconnect
        # dials *succeed* (SYN accepted) but the HELLO reply never comes
        # — the third liveness shape, distinct from refused (dial fails
        # fast) and partitioned (established pipe stalls).
        proxy.refuse(kill_existing=True)
        assert wait_until(lambda: not proxied.link.alive, timeout=10.0)
        proxy.accept()
        proxy.pause()
        reconnects_before = fleet.reconnects
        # The fleet keeps serving from the survivor throughout; the
        # half-open link never comes back while paused.
        for _ in range(2):
            result = fleet.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
        assert fleet.reconnects == reconnects_before
        assert not proxied.link.alive
        # resume() bridges the stalled dials: the pending HELLO completes
        # (late but intact) and the replica rejoins routing.
        proxy.resume()
        assert wait_until(lambda: proxied.link.alive, timeout=15.0)
        result = fleet.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_dead_dial_fails_fast(self, survivor_and_proxied):
        fleet, _, _, proxy = survivor_and_proxied
        proxied = fleet._find(proxy.address)
        proxy.refuse(kill_existing=True)
        assert wait_until(lambda: not proxied.link.alive, timeout=10.0)
        # Refused dials cycle quickly (exponential backoff from a tiny
        # base), so reconnect *attempts* keep happening — the supervisor
        # is not stuck the way a half-open dial would leave a naive one.
        proxy.accept()
        assert wait_until(lambda: proxied.link.alive, timeout=10.0)
        assert fleet.reconnects >= 1
