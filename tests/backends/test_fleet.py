"""Fleet control-plane tests: weighted routing, membership, re-spec, admin.

The chaos (proxy-injected) failure modes live in
``test_fleet_faults.py`` and the randomised event-sequence invariants in
``test_fleet_properties.py``; this file pins the happy path — the
:func:`~repro.backends.fleet.weighted_shards` partition contract,
bit-identical equivalence with the serial reference, drain/join
semantics, rolling re-spec, EWMA-weighted routing, the control socket
(admin client and CLI verb), and registry/serving integration.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np
import pytest

from repro.backends import (
    FleetAdminClient,
    FleetSupervisor,
    SerialBackend,
    WorkerCrashedError,
    contiguous_shards,
    create_backend,
    spawn_local_worker,
    weighted_shards,
    wire,
)
from repro.backends import remote
from repro.backends.fleet import (
    FleetMembershipError,
    ReplicaDrainedError,
    spawned_agent_environment,
)
from tests.backends.chaos import ChaosProxy
from tests.backends.test_equivalence import assert_results_equal
from tests.backends.test_remote import wait_until


class TestWeightedShards:
    def test_equal_weights_match_contiguous_rule(self):
        for count in (7, 24, 100):
            for workers in (1, 2, 3, 5):
                equal = weighted_shards(count, [1.0] * workers, 4)
                assert equal == contiguous_shards(count, workers, 4)

    def test_sizes_follow_weights(self):
        shards = weighted_shards(40, [3.0, 1.0], 2)
        sizes = [end - begin for begin, end in shards]
        assert sizes == [30, 10]

    def test_exact_partition_and_minimum_size(self):
        for weights in ([5.0, 1.0, 1.0], [0.1, 10.0], [2.0, 2.0, 1.0, 1.0]):
            for count in (2, 3, 8, 11, 64):
                shards = weighted_shards(count, weights, 2)
                assert shards[0][0] == 0 and shards[-1][1] == count
                for (_, left_end), (right_begin, _) in zip(shards, shards[1:]):
                    assert left_end == right_begin
                if len(shards) > 1:
                    assert all(end - begin >= 2 for begin, end in shards)

    def test_small_batches_stay_whole(self):
        assert weighted_shards(3, [1.0, 9.0], 2) == [(0, 3)]
        assert weighted_shards(1, [1.0, 1.0, 1.0], 1) == [(0, 1)]

    def test_extreme_skew_cannot_starve_a_shard(self):
        shards = weighted_shards(8, [1e9, 1.0], 4)
        assert [end - begin for begin, end in shards] == [4, 4]

    def test_empty_and_invalid_inputs(self):
        assert weighted_shards(0, [1.0], 4) == []
        with pytest.raises(ValueError):
            weighted_shards(8, [], 4)
        with pytest.raises(ValueError):
            weighted_shards(8, [1.0], 0)


class TestFleetEquivalence:
    def test_recall_matches_serial_reference(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_capabilities_and_context_manager(self, fleet_backend):
        capabilities = fleet_backend.capabilities()
        assert capabilities.name == "fleet"
        assert capabilities.workers == 2
        assert capabilities.shards_batches and capabilities.escapes_gil


class TestSpawnedAgents:
    def test_agents_spawn_only_without_addresses(self, backend_amm, worker_servers):
        """``workers`` counts local agents to spawn when no addresses are
        given; with addresses it spawns none."""
        adopted = FleetSupervisor(
            backend_amm,
            workers=3,
            worker_addresses=[server.address for server in worker_servers],
        )
        spawning = FleetSupervisor(backend_amm, workers=3)
        try:
            assert adopted._local_agents == 0
            assert spawning._local_agents == 3
            assert adopted.capabilities().workers == 2
        finally:
            adopted.close()
            spawning.close()

    def test_each_agent_gets_its_share_of_the_cores(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        cores = os.cpu_count() or 1
        assert spawned_agent_environment(1)["OPENBLAS_NUM_THREADS"] == str(cores)
        assert spawned_agent_environment(2)["OPENBLAS_NUM_THREADS"] == str(max(1, cores // 2))
        assert spawned_agent_environment(4 * cores)["OPENBLAS_NUM_THREADS"] == "1"

    def test_a_caller_setting_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert spawned_agent_environment(2)["OPENBLAS_NUM_THREADS"] == "3"

    def test_spawned_agents_carry_the_cap(self, spawned_fleet):
        """The two agents of a spawned fleet run with the cap in their
        environment, read back from the kernel's record of each process."""
        expected = os.environ.get(
            "OPENBLAS_NUM_THREADS", str(max(1, (os.cpu_count() or 1) // 2))
        )
        assert len(spawned_fleet._processes) == 2
        for process in spawned_fleet._processes:
            with open(f"/proc/{process.pid}/environ", "rb") as handle:
                entries = handle.read().split(b"\0")
            environ = dict(entry.split(b"=", 1) for entry in entries if b"=" in entry)
            assert environ[b"OPENBLAS_NUM_THREADS"] == expected.encode()

    def test_close_reaps_agents_and_closes_their_pipes(self, backend_amm):
        backend = FleetSupervisor(backend_amm, workers=1).prepare()
        (process,) = backend._processes
        backend.close()
        assert process.returncode is not None
        assert process.stdout.closed

    def test_failed_spawn_reaps_the_agent_and_closes_its_pipe(self, monkeypatch):
        """An agent that cannot bind exits before its startup line."""
        spawned = []
        real_popen = remote.subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(remote.subprocess, "Popen", recording_popen)
        with pytest.raises(RuntimeError, match="failed to start"):
            spawn_local_worker(host="256.0.0.1")
        (process,) = spawned
        assert process.returncode is not None
        assert process.stdout.closed


class TestMembership:
    def test_drained_replica_serves_no_shard(
        self,
        fleet_backend,
        worker_servers,
        request_codes,
        request_seeds,
        reference_results,
    ):
        target = worker_servers[1]
        info = fleet_backend.drain(target.address)
        assert info["state"] == "drained"
        served_before = target.commands_served
        for _ in range(3):
            result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
        assert target.commands_served == served_before
        # Readmission is instant: the link never disconnected.
        assert fleet_backend.join(target.address)["state"] == "live"
        fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert wait_until(lambda: target.commands_served > served_before)

    def test_drained_exchange_refused_before_any_bytes(
        self, fleet_backend, worker_servers
    ):
        replica = fleet_backend._find(worker_servers[0].address)
        fleet_backend.drain(replica.address)
        with pytest.raises(ReplicaDrainedError):
            replica.exchange(wire.PING, None, None)
        # Control traffic still flows on the drained link.
        kind, _, _ = replica.exchange(wire.PING, None, None, control=True)
        assert kind == wire.PONG

    def test_join_admits_new_worker_under_running_fleet(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        from repro.backends import WorkerServer

        joiner = WorkerServer().start()
        try:
            info = fleet_backend.join(joiner.address)
            assert info["state"] == "live" and info["origin"] == "joined"
            assert len(fleet_backend.fleet_stats()["replicas"]) == 3
            result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
            assert wait_until(lambda: joiner.commands_served > 0)
        finally:
            joiner.close()

    def test_join_unreachable_worker_raises_and_stays_out(self, fleet_backend):
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()  # nothing listens here any more
        with pytest.raises((ConnectionError, OSError)):
            fleet_backend.join(address)
        assert len(fleet_backend.fleet_stats()["replicas"]) == 2

    def test_unknown_address_raises_membership_error(self, fleet_backend):
        with pytest.raises(FleetMembershipError):
            # Deliberately unreachable — never bound, so no port race.
            fleet_backend.drain("127.0.0.1:1")  # repro-lint: disable=TEST001
        assert isinstance(FleetMembershipError("x"), ValueError)


class TestRespec:
    def test_rolling_respec_same_spec_is_invisible(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        before = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        report = fleet_backend.respec()
        assert [entry["outcome"] for entry in report] == ["updated", "updated"]
        assert fleet_backend.spec_version == 1
        after = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(before, reference_results)
        assert_results_equal(after, reference_results)

    def test_respec_preserves_drained_exclusion(self, fleet_backend, worker_servers):
        fleet_backend.drain(worker_servers[1].address)
        fleet_backend.respec()
        stats = fleet_backend.fleet_stats()
        states = {entry["address"]: entry["state"] for entry in stats["replicas"]}
        host, port = worker_servers[1].address
        assert states[f"{host}:{port}"] == "drained"
        assert stats["routable"] == 1


class TestWeightedRouting:
    def test_slow_replica_gets_fewer_rows(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        from repro.backends import WorkerServer

        fast, slow = WorkerServer().start(), WorkerServer().start()
        proxy = ChaosProxy(slow.address)
        proxy.delay(0.08)
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[fast.address, proxy.address],
            min_shard_size=2,
            heartbeat_interval=0.5,
            io_timeout=20.0,
            latency_alpha=0.5,
        ).prepare()
        try:
            for _ in range(4):
                result = fleet.recall_batch_seeded(request_codes, request_seeds)
                assert_results_equal(result, reference_results)
            fast_replica = fleet._find(fast.address)
            slow_replica = fleet._find(proxy.address)
            # Slow is not dead: the link stayed alive the whole time …
            assert slow_replica.link.alive and fleet.reconnects == 0
            # … but its measured per-row latency dwarfs the fast one's,
            # so routing weight (and therefore rows) shifted away.
            assert slow_replica.ewma_row_seconds > fast_replica.ewma_row_seconds
            assert fast_replica.rows_served > slow_replica.rows_served
            stats = fleet.fleet_stats()
            weights = {
                entry["address"]: entry["weight"] for entry in stats["replicas"]
            }
            fast_key = f"{fast.address[0]}:{fast.address[1]}"
            slow_key = f"{proxy.address[0]}:{proxy.address[1]}"
            assert weights[fast_key] > weights[slow_key]
        finally:
            fleet.close()
            proxy.close()
            fast.close()
            slow.close()


class ShortReplyWorker(remote.WorkerServer):
    """A worker agent whose RECALL replies drop their last row."""

    def _command(self, conn, kind, header, arrays, state) -> None:
        if kind == wire.RECALL:
            result = state["module"].recognise_batch_seeded(
                arrays["codes"], arrays["seeds"], engine=state["engine"]
            )
            wire.send_frame(conn, wire.RESULT, arrays=wire.result_to_wire(result[:-1]))
        else:
            super()._command(conn, kind, header, arrays, state)


class WrongKindWorker(remote.WorkerServer):
    """A worker agent that acknowledges RECALL with an ``OK`` frame."""

    def _command(self, conn, kind, header, arrays, state) -> None:
        if kind == wire.RECALL:
            wire.send_frame(conn, wire.OK, {})
        else:
            super()._command(conn, kind, header, arrays, state)


class TestShardReplyChecks:
    def test_a_shard_answered_a_row_short_is_refused(
        self, backend_amm, request_codes, request_seeds
    ):
        """The short reply is refused and its shard retried on the good
        replica; the short replica leaves routing until an operator
        joins it back, so later batches never reach it."""
        good, short = remote.WorkerServer().start(), ShortReplyWorker().start()
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[good.address, short.address],
            min_shard_size=2,
            heartbeat_interval=0.5,
            io_timeout=20.0,
        ).prepare()
        try:
            with SerialBackend(backend_amm) as serial:
                reference = serial.recall_batch_seeded(request_codes, request_seeds)
            result = fleet.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference)
            assert fleet.retried_shards >= 1
            replica = fleet._find(short.address)
            # The reply was read whole, so the link stays up, but drained.
            assert replica.link.alive and replica.state == "drained"
            assert fleet.fleet_stats()["routable"] == 1
            for _ in range(3):
                assert_results_equal(
                    fleet.recall_batch_seeded(request_codes, request_seeds), reference
                )
            assert replica.rows_served == 0
            # An error the worker transports back still reaches the
            # caller unchanged and drains nothing.
            with pytest.raises(ValueError):
                fleet.recall_batch_seeded(
                    np.full_like(request_codes, 99), request_seeds
                )
            assert fleet.fleet_stats()["routable"] == 1
            # An operator join readmits the replica; answering short
            # again, it is refused and drained again.
            retried = fleet.retried_shards
            assert fleet.join(short.address)["state"] == "live"
            assert_results_equal(
                fleet.recall_batch_seeded(request_codes, request_seeds), reference
            )
            assert replica.state == "drained"
            assert fleet.retried_shards == retried + 1
        finally:
            fleet.close()
            good.close()
            short.close()


    def test_a_shard_answered_with_the_wrong_kind_is_refused(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        good, wrong = remote.WorkerServer().start(), WrongKindWorker().start()
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[good.address, wrong.address],
            min_shard_size=2,
            heartbeat_interval=0.5,
            io_timeout=20.0,
        ).prepare()
        try:
            result = fleet.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
            assert fleet._find(wrong.address).state == "drained"
            assert fleet.retried_shards >= 1
        finally:
            fleet.close()
            good.close()
            wrong.close()

    def test_a_lone_refused_replica_fails_the_batch_retryably(
        self, backend_amm, request_codes, request_seeds
    ):
        """With its only replica refused, nothing can serve the shard:
        the batch fails with the retryable WorkerCrashedError, not the
        reply's protocol error."""
        short = ShortReplyWorker().start()
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[short.address],
            heartbeat_interval=0.5,
            connect_timeout=0.5,
            io_timeout=20.0,
        ).prepare()
        try:
            with pytest.raises(WorkerCrashedError, match="safe to retry"):
                fleet.recall_batch_seeded(request_codes, request_seeds)
            assert fleet.fleet_stats()["routable"] == 0
        finally:
            fleet.close()
            short.close()


class TestControlSocket:
    def test_status_join_drain_respec_via_admin_client(
        self, fleet_backend, worker_servers
    ):
        with FleetAdminClient(fleet_backend.control_address) as admin:
            status = admin.status()
            assert status["routable"] == 2
            assert status["spec_version"] == 0
            assert {entry["state"] for entry in status["replicas"]} == {"live"}
            host, port = worker_servers[1].address
            drained = admin.drain(f"{host}:{port}")
            assert drained["state"] == "drained"
            assert admin.status()["routable"] == 1
            rejoined = admin.join(f"{host}:{port}")
            assert rejoined["state"] == "live"
            report = admin.respec()
            assert [entry["outcome"] for entry in report] == ["updated", "updated"]
            assert admin.status()["counters"]["drains"] == 1

    def test_admin_errors_are_transported_types(self, fleet_backend):
        with FleetAdminClient(fleet_backend.control_address) as admin:
            with pytest.raises(ValueError):
                # Not a member, never bound — no port race.
                admin.drain("127.0.0.1:1")  # repro-lint: disable=TEST001
            # The connection survives a failed verb.
            assert admin.status()["routable"] == 2

    def test_version_skew_rejected_cleanly(self, fleet_backend):
        sock = socket.create_connection(fleet_backend.control_address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            wire.send_frame(sock, wire.HELLO, {"protocol": 999})
            kind, _, header, _ = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert header["type"] == "ProtocolVersionError"
        finally:
            sock.close()


class TestRegistryAndServing:
    def test_registry_creates_fleet_backend(self, backend_amm, worker_servers):
        backend = create_backend(
            "fleet",
            backend_amm,
            worker_addresses=[server.address for server in worker_servers],
        )
        try:
            assert isinstance(backend, FleetSupervisor)
            assert backend.prepare() is backend.prepare()  # idempotent
        finally:
            backend.close()

    def test_service_stats_surface_fleet_section(
        self, fleet_backend, backend_amm, request_codes, request_seeds
    ):
        from repro.serving import RecognitionService

        service = RecognitionService(
            backend_amm, max_batch_size=16, max_wait=0.001, backend=fleet_backend
        )
        try:
            futures = [
                service.submit(code, seed)
                for code, seed in zip(request_codes[:4], request_seeds[:4])
            ]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
            assert "fleet" in stats
            assert stats["fleet"]["routable"] == 2
            assert len(stats["fleet"]["replicas"]) == 2
        finally:
            service.close()

    def test_cli_admin_status_and_drain(self, fleet_backend, worker_servers, capsys):
        from repro.cli import main

        host, port = fleet_backend.control_address
        control = f"{host}:{port}"
        assert main(["admin", "status", "--control", control]) == 0
        output = capsys.readouterr().out
        assert "live" in output and "spec version 0" in output
        worker_host, worker_port = worker_servers[1].address
        assert main(
            ["admin", "drain", f"{worker_host}:{worker_port}", "--control", control]
        ) == 0
        assert "drained" in capsys.readouterr().out
        assert main(["admin", "respec", "--control", control]) == 0
        assert "updated" in capsys.readouterr().out


class TestThreadDiscipline:
    def test_close_joins_supervisor_and_control_threads(
        self, backend_amm, worker_servers
    ):
        baseline = set(threading.enumerate())
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[server.address for server in worker_servers],
            heartbeat_interval=0.1,
            control=("127.0.0.1", 0),
        ).prepare()
        fleet.close()
        fleet.close()  # idempotent
        assert wait_until(lambda: set(threading.enumerate()) <= baseline)
