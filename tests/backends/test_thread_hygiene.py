"""Thread hygiene: ``close()`` must not leak supervision machinery.

Every backend but ``serial`` owns background threads of some kind —
link supervisors, heartbeats, worker-connection handlers, control-socket
acceptors — and a fleet with spawned agents owns their processes.  The
contract pinned here: after ``close()`` returns (plus a short grace for
daemon threads to finish unwinding), ``threading.enumerate()`` is back
to what it was before the backend existed, and spawned agents are
reaped.  This pins two latent leaks: fleet supervisor
threads that could outlive the backend when a reconnect dial was in
flight (the join budget now covers ``connect_timeout``), and worker
handler threads that were started but never joined by
``WorkerServer.close()``.
"""

from __future__ import annotations

import threading

import pytest

from repro.backends import (
    FleetSupervisor,
    SerialBackend,
    WorkerServer,
)
from tests.backends.test_remote import wait_until


def _assert_threads_return_to(baseline):
    __tracebackhide__ = True
    assert wait_until(
        lambda: set(threading.enumerate()) <= baseline, timeout=15.0
    ), (
        "threads leaked past close(): "
        f"{[t.name for t in set(threading.enumerate()) - baseline]}"
    )


def _serial(amm):
    return SerialBackend(amm), []


def _fleet_spawned(amm):
    return FleetSupervisor(
        amm, workers=1, min_shard_size=4, heartbeat_interval=0.1, io_timeout=20.0
    ), []


def _remote(amm):
    """A fleet of adopted agents with static membership (no control socket)."""
    servers = [WorkerServer().start(), WorkerServer().start()]
    backend = FleetSupervisor(
        amm,
        worker_addresses=[server.address for server in servers],
        min_shard_size=4,
        heartbeat_interval=0.1,
        io_timeout=20.0,
    )
    return backend, servers


def _fleet(amm):
    servers = [WorkerServer().start(), WorkerServer().start()]
    backend = FleetSupervisor(
        amm,
        worker_addresses=[server.address for server in servers],
        min_shard_size=4,
        heartbeat_interval=0.1,
        io_timeout=20.0,
        control=("127.0.0.1", 0),
    )
    return backend, servers


@pytest.mark.parametrize(
    "factory", [_serial, _fleet_spawned, _remote, _fleet],
    ids=["serial", "fleet-spawned", "remote", "fleet"],
)
def test_backend_close_joins_all_threads(
    factory, backend_amm, request_codes, request_seeds
):
    baseline = set(threading.enumerate())
    backend, servers = factory(backend_amm)
    agents = []
    try:
        backend.prepare()
        agents = list(getattr(backend, "_processes", []))
        backend.recall_batch_seeded(request_codes, request_seeds)
    finally:
        backend.close()
        for server in servers:
            server.close()
    _assert_threads_return_to(baseline)
    # Spawned agents are reaped by close(), not left to the interpreter.
    assert all(agent.poll() is not None for agent in agents)


def test_worker_server_close_joins_handler_threads(backend_amm):
    """The worker agent itself: accept loop AND per-connection handlers.

    The handler threads used to be fire-and-forget daemons; a close()
    racing a busy handler could return while the handler still ran.
    """
    import socket

    from repro.backends import EngineSpec, wire

    baseline = set(threading.enumerate())
    server = WorkerServer().start()
    connections = []
    try:
        # Open two real handshaken connections so two handler threads run.
        spec_header, spec_arrays = wire.spec_to_wire(
            EngineSpec.from_module(backend_amm)
        )
        for _ in range(2):
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.settimeout(10.0)
            wire.send_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            kind, _, _, _ = wire.recv_frame(sock)
            assert kind == wire.HELLO
            wire.send_frame(sock, wire.SPEC, spec_header, spec_arrays)
            kind, _, _, _ = wire.recv_frame(sock)
            assert kind == wire.OK
            connections.append(sock)
        # Leave the connections open: close() must evict the handlers.
    finally:
        server.close()
        for sock in connections:
            sock.close()
    _assert_threads_return_to(baseline)


def test_fleet_close_is_prompt_with_reconnect_in_flight(backend_amm):
    """close() during a reconnect dial still joins the supervisor."""
    server = WorkerServer().start()
    baseline = set(threading.enumerate()) | {threading.current_thread()}
    fleet = FleetSupervisor(
        backend_amm,
        worker_addresses=[server.address],
        heartbeat_interval=0.05,
        backoff_base=0.01,
        backoff_max=0.05,
        connect_timeout=1.0,
        io_timeout=5.0,
    ).prepare()
    # Kill the only worker so the supervisor enters its reconnect loop.
    server.close()
    replica = fleet._replicas_snapshot()[0]
    assert wait_until(lambda: not replica.link.alive, timeout=10.0)
    fleet.close()
    _assert_threads_return_to(baseline)
