"""The remote transport: worker agents and the links that reach them.

This module moves the ``EngineSpec`` contract over TCP so recall can
shard across worker agents — spawned on this host or running on others:

* :class:`WorkerServer` — the worker agent (``python -m repro worker
  --listen HOST:PORT``).  Each accepted connection performs the versioned
  handshake, receives the pickle-free spec (configuration + programmed
  conductances, numpy buffers raw — see :mod:`repro.backends.wire`),
  rebuilds and pre-factorises a private
  :class:`~repro.crossbar.batched.BatchedCrossbarEngine`, and then serves
  ``RECALL`` / ``PING`` frames until the peer goes away; any other kind
  gets a typed ``unknown frame kind`` ``ERROR`` and the link keeps
  serving.  A mismatched protocol version is answered with a clean ``ERROR`` frame
  and a close — never a hang.  The accept loop, handshake and close
  live in :class:`_FrameServer`, which the fleet control socket shares.
* :class:`_WorkerLink` — the consumer's end: one long-lived socket per
  worker address, with the handshake, the single send/recv/mark-dead
  command path (:meth:`_WorkerLink.exchange`), the heartbeat probe and a
  close that never waits out an in-flight command.
* :func:`spawn_local_worker` / :func:`parse_worker_addresses` — agent
  launch and ``--workers`` parsing helpers.

The backend that drives these links is
:class:`~repro.backends.fleet.FleetSupervisor`: it supervises them
(heartbeats, reconnect with backoff), routes shards by measured replica
speed and retries a shard lost with a dying worker on the survivors.

Because every request names its own random substream, retrying a shard
on a different replica cannot change its answer — worker loss degrades
capacity, never correctness (the fractional-repetition view: each worker
holds a full replica, so any survivor can serve any shard).
"""

from __future__ import annotations

import select
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import wire

Address = Tuple[str, int]


def parse_worker_addresses(
    addresses: Union[str, Sequence[Union[str, Address]], None]
) -> List[Address]:
    """Normalise a worker-address selection into ``[(host, port), ...]``.

    Accepts a comma-separated ``"host:port,host:port"`` string (the CLI
    form), a sequence of such strings, or a sequence of ``(host, port)``
    pairs.  Raises ``ValueError`` on anything unparseable so a typo'd
    ``--workers`` flag fails at construction, not first dispatch.
    """
    if addresses is None:
        return []
    if isinstance(addresses, str):
        addresses = [token for token in addresses.split(",") if token.strip()]
    parsed: List[Address] = []
    for entry in addresses:
        if isinstance(entry, str):
            host, separator, port_text = entry.strip().rpartition(":")
            if not separator or not host:
                raise ValueError(
                    f"worker address {entry!r} must look like 'host:port'"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"worker address {entry!r} has a non-integer port"
                ) from None
        else:
            host, port = entry
            port = int(port)
        if not 0 < port < 65536:
            raise ValueError(f"worker port {port} out of range (1-65535)")
        parsed.append((host, port))
    return parsed


# ---------------------------------------------------------------------- #
# Frame servers: the worker agent and (in fleet.py) the control socket
# ---------------------------------------------------------------------- #
class _FrameServer:
    """A TCP server speaking the wire framing, one handler per connection.

    Owns the listener, the accept loop, the versioned ``HELLO``
    handshake, ``PING``/``BYE`` handling and a close that joins every
    thread it started.  Subclasses answer every other frame in
    :meth:`_command`; an exception raised there travels back as an
    ``ERROR`` frame and the connection keeps serving, so a bad command
    never crashes the loop.  A mismatched protocol version is answered
    with a clean ``ERROR`` frame and a close — never a hang.
    """

    #: Names the server in version-skew errors.
    role = "server"
    #: Prefix of the accept and per-connection handler thread names.
    thread_prefix = "repro-frame"

    def __init__(self, host: str, port: int, backlog: int) -> None:
        self._listener = socket.create_server((host, port), backlog=backlog)
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._conn_threads: List[threading.Thread] = []

    @property
    def address(self) -> Address:
        """The bound ``(host, port)`` — after an ephemeral ``port=0`` bind."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self):
        """Serve connections on a daemon thread; returns ``self``."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name=f"{self.thread_prefix}-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._connections.append(conn)
                # Track handler threads so close() can join them —
                # otherwise a handler can outlive the server and leak
                # past the owner's close() (pinned by
                # tests/backends/test_thread_hygiene.py).  Finished
                # handlers are pruned here rather than on their own
                # thread so the list cannot grow without bound.
                self._conn_threads = [
                    thread for thread in self._conn_threads if thread.is_alive()
                ]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"{self.thread_prefix}-conn",
                    daemon=True,
                )
                self._conn_threads.append(thread)
            thread.start()

    def _command(
        self,
        conn: socket.socket,
        kind: int,
        header: dict,
        arrays: Dict[str, np.ndarray],
        state: dict,
    ) -> None:
        """Answer one command frame; ``state`` lives as long as the connection."""
        raise NotImplementedError

    def _serve_connection(self, conn: socket.socket) -> None:
        state: dict = {}
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A peer that vanishes without a FIN (host loss, cable pull)
            # must not pin this handler thread forever: let the kernel's
            # keepalive probes surface the dead peer as an EOF.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            kind, version, header, _ = wire.recv_frame(conn)
            if kind != wire.HELLO:
                wire.send_error(
                    conn,
                    wire.WireProtocolError(
                        f"expected HELLO as the first frame, got kind {kind}"
                    ),
                )
                return
            if version != wire.PROTOCOL_VERSION or (
                header.get("protocol") != wire.PROTOCOL_VERSION
            ):
                # The one place a version skew is *expected*: answer with
                # a clean, typed error so an old peer fails fast.
                wire.send_error(
                    conn,
                    wire.ProtocolVersionError(
                        f"{self.role} speaks protocol {wire.PROTOCOL_VERSION}, "
                        f"peer sent {header.get('protocol', version)}"
                    ),
                )
                return
            wire.send_frame(conn, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            while not self._closed.is_set():
                kind, _, header, arrays = wire.recv_frame(conn)
                if kind == wire.BYE:
                    return
                if kind == wire.PING:
                    wire.send_frame(conn, wire.PONG)
                    continue
                try:
                    self._command(conn, kind, header, arrays, state)
                except (wire.ConnectionClosedError, BrokenPipeError, OSError):
                    raise
                except Exception as error:  # transport, never crash the loop
                    wire.send_error(conn, error)
        except (wire.ConnectionClosedError, ConnectionError, OSError):
            pass  # peer went away (or tore a frame); nothing to answer
        except wire.WireProtocolError as error:
            try:
                wire.send_error(conn, error)
            except OSError:
                pass
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            conn.close()

    def close(self) -> None:
        """Stop accepting, drop live connections and release the port."""
        if self._closed.is_set():
            return
        self._closed.set()
        # Closing a listener does not wake a thread blocked in accept()
        # on Linux; shutdown() does (and a dummy dial covers platforms
        # where shutdown of a listening socket is refused).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                poke = socket.create_connection(self.address, timeout=0.5)
                poke.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections, self._connections = self._connections, []
            threads, self._conn_threads = self._conn_threads, []
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # Handler threads see their socket die above and exit; joining
        # them keeps shutdown hygienic (no thread outlives close).
        for thread in threads:
            thread.join(timeout=5.0)


class WorkerServer(_FrameServer):
    """A recall worker agent serving backend connections on one socket.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`address`).
    backlog:
        Listen backlog for concurrent backend connections; each accepted
        connection gets its own handler thread, engine replica and module
        rebuild, so connections share nothing.
    """

    role = "worker"
    thread_prefix = "repro-worker"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        super().__init__(host, port, backlog)
        #: Recall commands served since start (observability).
        self.commands_served = 0

    def serve_forever(self) -> None:
        """Blocking variant used by the CLI entry point."""
        self.start()
        while not self._closed.wait(0.5):
            pass

    def _command(self, conn, kind, header, arrays, state) -> None:
        if kind == wire.SPEC:
            spec = wire.spec_from_wire(header, arrays)
            state["module"] = spec.module
            state["engine"] = spec.build_engine(prepare=True)
            wire.send_frame(conn, wire.OK, {})
        elif kind == wire.RECALL:
            if "module" not in state:
                raise RuntimeError("RECALL before SPEC on this link")
            result = state["module"].recognise_batch_seeded(
                np.array(arrays["codes"], dtype=np.int64),
                np.array(arrays["seeds"], dtype=np.int64),
                engine=state["engine"],
            )
            self.commands_served += 1
            wire.send_frame(conn, wire.RESULT, arrays=wire.result_to_wire(result))
        else:
            raise wire.WireProtocolError(f"unknown frame kind {kind}")

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def spawn_local_worker(
    host: str = "127.0.0.1",
    timeout: float = 30.0,
    env: Optional[Mapping[str, str]] = None,
) -> Tuple[subprocess.Popen, Address]:
    """Launch ``python -m repro worker`` as a subprocess on this host.

    Binds an ephemeral port and parses it back from the agent's startup
    line, so concurrent spawns never collide.  Returns the process handle
    (terminate it to simulate worker loss) and the listen address.  The
    agent runs in ``env`` (default: this process's environment).  Used
    by the benchmarks, the CI kill-recovery smoke and the tests; real
    deployments start agents with the same command on each host.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", f"{host}:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        # Wait on the pipe with the remaining budget — a bare readline()
        # would block past the deadline if the agent wedges before its
        # startup print.
        readable, _, _ = select.select(
            [process.stdout], [], [], min(0.25, max(0.01, deadline - time.monotonic()))
        )
        if not readable:
            if process.poll() is not None:
                break
            continue
        line = process.stdout.readline()
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
            return process, parse_worker_addresses(address)[0]
        if not line and process.poll() is not None:
            break
    process.terminate()
    _reap_local_worker(process)
    raise RuntimeError(f"worker agent failed to start (last output: {line!r})")


def _reap_local_worker(process: subprocess.Popen) -> None:
    """Wait for a terminated agent of :func:`spawn_local_worker` (killing it
    if it outlives 10 s) and close its output pipe."""
    try:
        process.wait(timeout=10.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
        process.kill()
        process.wait(timeout=10.0)
    if process.stdout is not None:
        process.stdout.close()


# ---------------------------------------------------------------------- #
# Consumer-side link
# ---------------------------------------------------------------------- #
class _WorkerLink:
    """One supervised socket link to a worker agent.

    The link serialises frame exchange under :attr:`lock` (one in-flight
    command per link) and exposes ``alive`` for the dispatcher and the
    supervisor.  All state transitions go through :meth:`mark_dead` /
    :meth:`connect` so the two never disagree about liveness.
    """

    def __init__(self, address: Address, io_timeout: float) -> None:
        self.address = address
        self.io_timeout = io_timeout
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None
        self.alive = False
        self.backoff: float = 0.0
        self.next_attempt: float = 0.0

    def connect(
        self, spec_header: dict, spec_arrays: Dict[str, np.ndarray],
        connect_timeout: float,
    ) -> None:
        """Dial, handshake and push the spec.

        Any failure (refused, version skew, handshake garbage) leaves the
        link dead and re-raises — the caller decides whether that is
        fatal (``prepare`` with no survivors) or retryable (supervisor).
        """
        sock = socket.create_connection(self.address, timeout=connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.io_timeout)
            wire.send_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            kind, version, header, _ = wire.recv_frame(sock)
            if kind == wire.ERROR:
                raise wire.transported_error(header["type"], header["message"])
            if kind != wire.HELLO or version != wire.PROTOCOL_VERSION:
                raise wire.ProtocolVersionError(
                    f"worker {self.address} answered kind {kind} "
                    f"protocol {version}; expected HELLO v{wire.PROTOCOL_VERSION}"
                )
            wire.send_frame(sock, wire.SPEC, spec_header, spec_arrays)
            kind, _, header, _ = wire.recv_frame(sock)
            if kind == wire.ERROR:
                raise wire.transported_error(header["type"], header["message"])
            if kind != wire.OK:
                raise wire.WireProtocolError(
                    f"worker {self.address} answered SPEC with kind {kind}"
                )
        except BaseException:
            sock.close()
            raise
        with self.lock:
            self.sock = sock
            self.alive = True
            self.backoff = 0.0

    def mark_dead(self) -> None:
        """Tear the socket down; the supervisor will schedule a reconnect."""
        with self.lock:
            self._mark_dead_locked()

    def _mark_dead_locked(self) -> None:
        self.alive = False
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def exchange(
        self,
        kind: int,
        header: Optional[dict],
        arrays,
        gate: Optional[Callable[[], None]] = None,
    ) -> Tuple[int, dict, Dict[str, np.ndarray]]:
        """Send one command frame and await its reply, holding the lock.

        ``gate`` runs under the lock before any bytes leave; raising from
        it refuses the command (the fleet's drained-replica check, which
        must not race a drain).  Socket trouble (EOF, reset, timeout — a
        worker slower than ``io_timeout`` is indistinguishable from a
        dead one) marks the link dead and raises :class:`ConnectionError`.
        """
        with self.lock:
            if gate is not None:
                gate()
            if not self.alive or self.sock is None:
                raise ConnectionError(f"link to {self.address} is down")
            try:
                wire.send_frame(self.sock, kind, header, arrays)
                reply_kind, _, reply_header, reply_arrays = wire.recv_frame(self.sock)
            except (OSError, wire.WireProtocolError, wire.ConnectionClosedError) as error:
                self._mark_dead_locked()
                raise ConnectionError(
                    f"worker {self.address} failed mid-command: {error}"
                ) from error
            return reply_kind, reply_header, reply_arrays

    def ping(self, timeout: float = 1.0) -> bool:
        """Heartbeat probe; returns liveness (marking the link on failure).

        ``timeout`` must be the caller's full io budget: once the PING is
        on the wire its PONG has to be read (or the socket torn down —
        a late PONG would corrupt the next command's framing), so timing
        out early declares a merely *slow* worker dead and forces a
        spurious failover.  The probe skips busy links entirely (a link
        serving a shard is alive by definition), so a slow probe only
        delays supervision of the other links, never dispatch.
        """
        if not self.lock.acquire(blocking=False):
            return True  # busy serving a shard — alive by definition
        try:
            if not self.alive or self.sock is None:
                return False
            try:
                self.sock.settimeout(min(timeout, self.io_timeout))
                wire.send_frame(self.sock, wire.PING)
                kind, _, _, _ = wire.recv_frame(self.sock)
            except (OSError, wire.WireProtocolError, wire.ConnectionClosedError):
                self._mark_dead_locked()
                return False
            finally:
                if self.sock is not None:
                    try:
                        self.sock.settimeout(self.io_timeout)
                    except OSError:
                        pass
            if kind != wire.PONG:
                self._mark_dead_locked()
                return False
            return True
        finally:
            self.lock.release()

    def close(self, timeout: float = 1.0) -> None:
        """Tear the link down without waiting on an in-flight command.

        A graceful BYE is sent only if the lock is free within
        ``timeout``; otherwise the socket is force-closed from here — the
        holder's blocked recv fails immediately with ``OSError`` (handled
        as a dead link), so backend shutdown never waits out a full
        ``io_timeout``.
        """
        acquired = self.lock.acquire(timeout=timeout)
        try:
            sock = self.sock
            if sock is not None and acquired:
                try:
                    wire.send_frame(sock, wire.BYE)
                except OSError:
                    pass
            self.alive = False
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            if acquired:
                self.sock = None
        finally:
            if acquired:
                self.lock.release()
