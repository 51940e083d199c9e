"""The fleet control plane: supervised replica sets with online membership.

This module is the one backend over the worker links of
:mod:`repro.backends.remote`, and a *control plane* for the whole
replica set:

* :class:`FleetSupervisor` — registered as ``"fleet"``.  Spawns local
  worker agents (``spawn_local_worker``, each with its share of the
  cores as its BLAS thread count: :func:`spawned_agent_environment`)
  or adopts running ones (``worker_addresses``), supervises every link
  (heartbeats, reconnect with backoff, shard retry on the survivors),
  and tracks per-replica health and an EWMA of measured per-row shard
  latency.  Routing is
  *health-weighted*: shard sizes are proportional to each replica's
  measured speed (:func:`weighted_shards`), so a slow replica receives
  proportionally fewer rows — it is never declared dead for being slow
  (slow ≠ dead), it just stops being the bottleneck.  Because routing
  only decides *which replica* solves a shard, every recall runs the
  seeded path and the engine answers a row independently of its
  batch-mates, no routing decision can change a result bit.  A replica
  whose reply fails the consumer's checks (wrong frame kind, missing
  array, a row too few) is taken out of routing like a lost one and its
  shard retried on the survivors.
* **Online membership** — :meth:`FleetSupervisor.join` admits a worker
  into a *running* fleet (scale-out under load): the supervisor dials
  it, pushes the current spec over the ordinary handshake and starts
  routing to it.  :meth:`~FleetSupervisor.drain` excludes a replica
  from routing, waits for its in-flight shard and leaves the link warm
  (control traffic still flows), so an operator can take a worker out
  for maintenance without failing a single request; ``join`` on a
  drained address readmits it.
* **Rolling re-spec** — :meth:`FleetSupervisor.respec` reprograms the
  whole fleet without dropping traffic: one replica at a time is
  drained, pushed the new :class:`~repro.backends.base.EngineSpec`
  (the ``SPEC`` frame is valid mid-connection), *verified with a canary
  recall* against a locally computed reference, and readmitted before
  the next replica starts.  A replica that fails its canary stays out
  of routing; a replica that is partitioned mid-roll is marked dead and
  picks the new spec up on reconnect (the supervisor always pushes the
  current spec).
* **Admin surface** — :class:`FleetControlServer` serves the ``JOIN`` /
  ``DRAIN`` / ``RESPEC`` / ``STATUS`` control frames of
  :mod:`repro.backends.wire` on a control socket;
  :class:`FleetAdminClient` (and ``python -m repro admin``) speaks them
  from outside the serving process.  :meth:`FleetSupervisor.fleet_stats`
  is the JSON snapshot behind ``STATUS`` and the ``fleet`` section of
  the serving ``/stats`` endpoint.

The fractional-repetition view still holds: every worker carries a full
replica, so membership changes move *capacity*, never correctness — the
chaos matrix (``tests/backends/test_fleet_faults.py``) and the property
suite (``tests/backends/test_fleet_properties.py``) pin bit-identical
results across every fleet event.
"""

from __future__ import annotations

import os
import socket
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import wire
from repro.backends.base import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    WorkerCrashedError,
)
from repro.backends.remote import (
    Address,
    _FrameServer,
    _WorkerLink,
    _reap_local_worker,
    parse_worker_addresses,
    spawn_local_worker,
)
from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    concatenate_batch_results,
)
from repro.core.inputs import check_batch
from repro.utils.validation import check_integer


class ReplicaDrainedError(ConnectionError):
    """A shard was offered to a drained replica; the dispatcher re-queues.

    Raised *before any bytes leave* — the admitted flag is checked under
    the link lock — so a drained replica can never serve part of a
    batch.  A :class:`ConnectionError` subtype on purpose: the dispatch
    retry machinery already treats those as "route elsewhere".
    """


class FleetMembershipError(ValueError):
    """An admin verb named a worker address the fleet does not know."""


# A membership error raised inside the serving process must reach the
# admin client as the same type (not the RuntimeError fallback), so a
# typo'd `repro admin drain` address fails exactly like the in-process
# call would.  Registered here, next to the type, not in wire.py — the
# protocol module stays ignorant of fleet semantics.
wire.TRANSPORTABLE_ERRORS.setdefault("FleetMembershipError", FleetMembershipError)


def weighted_shards(
    count: int,
    weights: Sequence[float],
    min_shard_size: int,
) -> List[Tuple[int, int]]:
    """Split ``count`` samples into shards sized proportionally to weights.

    The health-weighted generalisation of
    :func:`~repro.backends.base.contiguous_shards`: ``weights[i]`` is the
    measured speed of target ``i`` (higher = faster = bigger shard).
    Guarantees, pinned by ``tests/backends/test_fleet.py``:

    * shards partition ``[0, count)`` exactly, in order, no empties;
    * at most ``len(weights)`` shards, and only as many as keep every
      shard at least ``min_shard_size`` samples (small batches stay
      whole, exactly like the unweighted rule);
    * every shard holds ``>= min_shard_size`` samples whenever more than
      one shard is produced — proportionality is clamped rather than
      ever emitting a sub-minimum shard;
    * with equal weights the split matches ``contiguous_shards`` sizes
      (floor rule, sizes differ by at most one).

    Routing weights decide *where* rows are solved, never what the
    answer is: the seeded recall path makes results independent of the
    shard plan, so this function is free to chase throughput.
    """
    if count <= 0:
        return []
    if not weights:
        raise ValueError("weighted_shards needs at least one weight")
    check_integer("min_shard_size", min_shard_size, minimum=1)
    shards = min(len(weights), max(1, count // min_shard_size))
    live = [max(float(weight), 1e-12) for weight in weights[:shards]]
    total = sum(live)
    bounds = [0] * (shards + 1)
    bounds[shards] = count
    cumulative = 0.0
    for index in range(1, shards):
        cumulative += live[index - 1]
        bounds[index] = int(count * (cumulative / total))
    # Clamp to the minimum shard size: shards <= count // min_shard_size,
    # so low <= high always holds and the pass keeps the exact partition.
    for index in range(1, shards):
        low = bounds[index - 1] + min_shard_size
        high = count - (shards - index) * min_shard_size
        bounds[index] = min(max(bounds[index], low), high)
    return list(zip(bounds[:-1], bounds[1:]))


def _parse_control(
    control: Union[str, Address, None]
) -> Optional[Address]:
    """Normalise a control-socket selection into ``(host, port)`` or None.

    Unlike worker addresses, port 0 is meaningful here (bind ephemeral
    and read :attr:`FleetSupervisor.control_address` back).
    """
    if control is None:
        return None
    if isinstance(control, str):
        host, separator, port_text = control.strip().rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"control address {control!r} must look like 'host:port'"
            )
        return host, int(port_text)
    host, port = control
    return str(host), int(port)


class _Replica:
    """One fleet member: a supervised link plus health and routing state.

    ``admitted`` is the routing flag — cleared by :meth:`drain`, set by
    ``join``/readmit — and is checked *under the link lock* (the gate of
    :meth:`_WorkerLink.exchange`), so the drain contract ("no shard after
    the drain returns") has no check-then-send race.  ``ewma_row_seconds`` is the
    exponentially weighted moving average of measured seconds per row
    over this replica's served shards; ``None`` until the first shard.
    """

    def __init__(self, address: Address, io_timeout: float, origin: str) -> None:
        self.link = _WorkerLink(address, io_timeout)
        self.origin = origin
        self.admitted = True
        self.draining = False
        self.ewma_row_seconds: Optional[float] = None
        self.shards_served = 0
        self.rows_served = 0
        self._stats_lock = threading.Lock()

    @property
    def address(self) -> Address:
        return self.link.address

    @property
    def state(self) -> str:
        """``live`` | ``draining`` | ``drained`` | ``dead`` (dead wins)."""
        if not self.link.alive:
            return "dead"
        if self.draining:
            return "draining"
        if not self.admitted:
            return "drained"
        return "live"

    def _refuse_if_drained(self) -> None:
        if not self.admitted:
            raise ReplicaDrainedError(
                f"replica {self.address} is drained; shard re-queued"
            )

    def exchange(
        self,
        kind: int,
        header: Optional[dict],
        arrays,
        control: bool = False,
    ) -> Tuple[int, dict, Dict[str, np.ndarray]]:
        """One command round-trip, refusing recall traffic when drained.

        ``control=True`` bypasses the admitted check (drained replicas
        still accept SPEC pushes and canary recalls — that is the whole
        point of draining instead of disconnecting); recall dispatch
        uses ``control=False`` and re-queues on
        :class:`ReplicaDrainedError`.
        """
        gate = None if control else self._refuse_if_drained
        return self.link.exchange(kind, header, arrays, gate)

    def observe(self, rows: int, elapsed: float, alpha: float) -> None:
        """Fold one served shard into the health/latency estimate."""
        per_row = elapsed / max(1, rows)
        with self._stats_lock:
            if self.ewma_row_seconds is None:
                self.ewma_row_seconds = per_row
            else:
                self.ewma_row_seconds = (
                    alpha * per_row + (1.0 - alpha) * self.ewma_row_seconds
                )
            self.shards_served += 1
            self.rows_served += rows


def spawned_agent_environment(agents: int) -> Dict[str, str]:
    """The environment of ``agents`` spawned local worker agents.

    This process's environment, with ``OPENBLAS_NUM_THREADS`` set to each
    agent's share of the cores (``os.cpu_count() // agents``, at least 1)
    unless it is set already.  numpy's and scipy's OpenBLAS pools both
    read it at load; without it every agent starts one BLAS thread per
    core, so two agents on two cores run four and contend for them.
    """
    env = dict(os.environ)
    share = (os.cpu_count() or 1) // max(1, agents)
    env.setdefault("OPENBLAS_NUM_THREADS", str(max(1, share)))
    return env


class FleetSupervisor(RecallBackend):
    """Health-weighted, dynamically-membered replica set of worker agents.

    Parameters
    ----------
    module:
        The served module; its wire spec is pushed to every worker at
        connect time, on every reconnect, and (rolling) on re-spec.
    workers:
        When no ``worker_addresses`` are given, how many local worker
        agents to spawn at :meth:`prepare` (``--backend fleet --workers
        2``); ignored otherwise.
    worker_addresses:
        Worker agents to *adopt* — ``"host:port,host:port"`` or a
        sequence of addresses (``python -m repro worker --listen
        HOST:PORT`` on any host).  With addresses the fleet spawns no
        local agent.
    min_shard_size:
        A batch is split across replicas only when every shard would
        hold at least this many samples.
    connect_timeout, io_timeout:
        Socket budgets for dialling and for one in-flight command; a
        worker slower than ``io_timeout`` is treated as crashed and its
        shard is retried on the survivors.
    heartbeat_interval, backoff_base, backoff_max:
        Seconds between idle-link PING probes; dead links are re-dialled
        with exponential backoff (``backoff_base`` doubling to
        ``backoff_max``).
    latency_alpha:
        EWMA smoothing factor for per-row shard latency (0 < alpha <= 1;
        higher = reacts faster to a replica speeding up or bogging down).
    control:
        ``(host, port)`` or ``"host:port"`` to serve the fleet control
        socket (``port`` 0 = ephemeral; read
        :attr:`control_address` back).  ``None`` = no control socket.
    """

    name = "fleet"

    #: Rows in the re-spec canary recall (the verification batch every
    #: replica must answer bit-identically before readmission).
    CANARY_BATCH = 4

    def __init__(
        self,
        module: AssociativeMemoryModule,
        workers: int = 2,
        worker_addresses: Union[str, Sequence[Union[str, Address]], None] = None,
        min_shard_size: int = 16,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
        heartbeat_interval: float = 2.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        latency_alpha: float = 0.3,
        control: Union[str, Address, None] = None,
        **_ignored,
    ) -> None:
        addresses = parse_worker_addresses(worker_addresses)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        if not 0.0 < latency_alpha <= 1.0:
            raise ValueError(
                f"latency_alpha must be in (0, 1], got {latency_alpha}"
            )
        self.module = module
        self.min_shard_size = min_shard_size
        self.spec = EngineSpec.from_module(module)
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.heartbeat_interval = heartbeat_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.latency_alpha = latency_alpha
        self._local_agents = 0 if addresses else max(1, int(workers))
        self._control_request = _parse_control(control)
        self._control_server: Optional[FleetControlServer] = None
        self._processes: List[subprocess.Popen] = []
        #: Guards the replica list (membership) and the spec reference.
        self._fleet_lock = threading.Lock()
        self._replicas: List[_Replica] = [
            _Replica(address, io_timeout, origin="adopted")
            for address in addresses
        ]
        self._prepare_lock = threading.Lock()
        self._prepared = False
        self._closed = False
        self._supervisor: Optional[threading.Thread] = None
        self._wake = threading.Event()
        # The canary workload is a pure function of the module geometry,
        # so every re-spec (and every test) verifies the same recall.
        rows = module.crossbar.rows
        levels = 2 ** module.input_dacs.bits
        self._canary_codes = (
            np.arange(self.CANARY_BATCH * rows, dtype=np.int64).reshape(
                self.CANARY_BATCH, rows
            )
            * 7
        ) % levels
        self._canary_seeds = np.arange(self.CANARY_BATCH, dtype=np.int64) + 9001
        #: Observability counters (all surfaced by :meth:`fleet_stats`).
        self.reconnects = 0
        self.retried_shards = 0
        self.joins = 0
        self.readmits = 0
        self.drains = 0
        self.respecs = 0
        #: Monotone spec generation; bumped by every successful re-spec.
        self.spec_version = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def control_address(self) -> Optional[Address]:
        """The bound control socket address (after :meth:`prepare`)."""
        if self._control_server is None:
            return None
        return self._control_server.address

    def _spec_wire(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        with self._fleet_lock:
            spec = self.spec
        return wire.spec_to_wire(spec)

    def _replicas_snapshot(self) -> List[_Replica]:
        with self._fleet_lock:
            return list(self._replicas)

    def prepare(self) -> "FleetSupervisor":
        with self._prepare_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._prepared:
                return self
            env = spawned_agent_environment(self._local_agents)
            for _ in range(self._local_agents):
                process, address = spawn_local_worker(env=env)
                self._processes.append(process)
                with self._fleet_lock:
                    self._replicas.append(
                        _Replica(address, self.io_timeout, origin="spawned")
                    )
            header, arrays = self._spec_wire()
            first_error: Optional[BaseException] = None
            for replica in self._replicas_snapshot():
                try:
                    replica.link.connect(header, arrays, self.connect_timeout)
                except Exception as error:
                    first_error = first_error or error
                    replica.link.next_attempt = time.monotonic()
            if not any(r.link.alive for r in self._replicas_snapshot()):
                raise ConnectionError(
                    f"no {self.name} worker reachable at "
                    f"{[r.address for r in self._replicas_snapshot()]}: "
                    f"{first_error}"
                )
            if self._control_request is not None:
                self._control_server = FleetControlServer(
                    self, *self._control_request
                )
            self._supervisor = threading.Thread(
                target=self._supervise,
                name="fleet-supervisor",
                daemon=True,
            )
            self._prepared = True
            self._supervisor.start()
            return self

    def _supervise(self) -> None:
        """Heartbeat idle links; reconnect dead members with backoff.

        Reconnects always push the *current* spec, so a replica that was
        dead through a re-spec comes back consistent with the fleet.
        """
        while not self._closed:
            next_heartbeat = time.monotonic() + self.heartbeat_interval
            for replica in self._replicas_snapshot():
                if self._closed:
                    return
                link = replica.link
                if link.alive:
                    # Probe with the full io budget: a PONG that takes
                    # longer than a short probe window but arrives within
                    # io_timeout is a *slow* worker, and slow is not dead
                    # (pinned by tests/backends/test_remote_faults.py).
                    # Once a PING is sent its PONG must be read or the
                    # socket torn down (a late PONG would corrupt the next
                    # command's framing), so the only safe probe timeout
                    # is the one that actually defines death.
                    link.ping(timeout=self.io_timeout)
                if not link.alive and time.monotonic() >= link.next_attempt:
                    try:
                        header, arrays = self._spec_wire()
                        link.connect(header, arrays, self.connect_timeout)
                        self.reconnects += 1
                    except Exception:
                        link.backoff = min(
                            self.backoff_max,
                            (link.backoff * 2) or self.backoff_base,
                        )
                        link.next_attempt = time.monotonic() + link.backoff
            delay = max(0.0, next_heartbeat - time.monotonic())
            dead = [
                replica
                for replica in self._replicas_snapshot()
                if not replica.link.alive
            ]
            if dead:
                soonest = min(r.link.next_attempt for r in dead)
                delay = min(delay, max(0.0, soonest - time.monotonic()), 0.25)
            self._wake.wait(timeout=max(delay, 0.01))
            self._wake.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        if self._control_server is not None:
            self._control_server.close()
        # Close links before joining the supervisor (a heartbeat blocked
        # in recv unblocks the moment its socket is force-closed), and
        # give the join the connect budget too — the supervisor may be
        # inside a reconnect dial, which link.close() cannot interrupt.
        for replica in self._replicas_snapshot():
            replica.link.close()
        if self._supervisor is not None:
            self._supervisor.join(timeout=max(5.0, self.connect_timeout + 1.0))
        for replica in self._replicas_snapshot():
            replica.link.close()
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            _reap_local_worker(process)
        self._processes = []

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            workers=len(self._replicas_snapshot()),
            shards_batches=True,
            escapes_gil=True,
        )

    # ------------------------------------------------------------------ #
    # Membership and health
    # ------------------------------------------------------------------ #
    def _find(self, address: Union[str, Address]) -> _Replica:
        (parsed,) = parse_worker_addresses([address])
        for replica in self._replicas_snapshot():
            if replica.address == parsed:
                return replica
        raise FleetMembershipError(
            f"no fleet member at {parsed[0]}:{parsed[1]}; members: "
            f"{[f'{h}:{p}' for h, p in (r.address for r in self._replicas_snapshot())]}"
        )

    def join(self, address: Union[str, Address]) -> dict:
        """Admit (or readmit) a worker into the running fleet.

        A new address is dialled, handshaken and pushed the current spec
        before it enters routing — a worker that cannot serve never
        joins.  A known address is readmitted: a drained replica returns
        to routing immediately, a dead one on its next reconnect.
        Returns the replica's :meth:`fleet_stats` entry.
        """
        self.prepare()
        (parsed,) = parse_worker_addresses([address])
        try:
            replica = self._find(parsed)
        except FleetMembershipError:
            replica = _Replica(parsed, self.io_timeout, origin="joined")
            header, arrays = self._spec_wire()
            replica.link.connect(header, arrays, self.connect_timeout)
            with self._fleet_lock:
                self._replicas.append(replica)
            self.joins += 1
            self._wake.set()
            return self._replica_info(replica)
        if not replica.admitted:
            replica.admitted = True
            self.readmits += 1
        if not replica.link.alive:
            replica.link.next_attempt = time.monotonic()
            self._wake.set()
        return self._replica_info(replica)

    def _drain_replica(self, replica: _Replica, timeout: float) -> None:
        """Exclude from routing, then wait out the in-flight shard.

        The link lock serialises exchanges, so once it is acquired here
        no recall can be in flight; any dispatch that raced the flag
        flip fails inside :meth:`_Replica.exchange` (admitted is checked
        under the same lock) and re-queues its shard elsewhere.
        """
        replica.admitted = False
        replica.draining = True
        try:
            acquired = replica.link.lock.acquire(timeout=timeout)
            if not acquired:
                raise TimeoutError(
                    f"replica {replica.address} still has a shard in flight "
                    f"after {timeout}s; it stays out of routing"
                )
        finally:
            if acquired:
                replica.link.lock.release()
            replica.draining = False

    def drain(
        self, address: Union[str, Address], timeout: float = 30.0
    ) -> dict:
        """Take one replica out of routing; returns once it is idle.

        The link stays connected and heartbeated (control traffic —
        SPEC pushes, canary recalls — still flows), so readmission via
        :meth:`join` is instant.  Returns the replica's stats entry.
        """
        self.prepare()
        replica = self._find(address)
        self._drain_replica(replica, timeout)
        self.drains += 1
        return self._replica_info(replica)

    # ------------------------------------------------------------------ #
    # Rolling re-spec
    # ------------------------------------------------------------------ #
    def _canary_expected(self, spec: EngineSpec) -> BatchRecognitionResult:
        engine = spec.build_engine(prepare=True)
        return spec.module.recognise_batch_seeded(
            self._canary_codes, self._canary_seeds, engine=engine
        )

    def _canary_matches(
        self, replica: _Replica, expected: BatchRecognitionResult
    ) -> bool:
        result = self._recall_shard(
            replica, self._canary_codes, self._canary_seeds, control=True
        )
        discrete = (
            np.array_equal(result.winner_column, expected.winner_column)
            and np.array_equal(result.winner, expected.winner)
            and np.array_equal(result.dom_code, expected.dom_code)
            and np.array_equal(result.accepted, expected.accepted)
            and np.array_equal(result.tie, expected.tie)
            and np.array_equal(result.codes, expected.codes)
            and np.array_equal(result.events, expected.events)
        )
        analog = np.allclose(
            result.column_currents,
            expected.column_currents,
            rtol=1e-9,
            atol=0.0,
        ) and np.allclose(
            result.static_power, expected.static_power, rtol=1e-9, atol=0.0
        )
        return discrete and analog

    def respec(
        self,
        module: Optional[AssociativeMemoryModule] = None,
        drain_timeout: float = 30.0,
    ) -> List[dict]:
        """Rolling spec update: drain → push → canary → readmit, per replica.

        ``module=None`` re-pushes the current module (the admin
        ``respec`` verb: re-synchronise the fleet, e.g. after in-process
        reprogramming); a same-module re-spec is bit-invisible to
        results.  The roll never touches more than one
        replica at a time, so a fleet of two or more keeps serving
        throughout.  Returns one report entry per replica:
        ``{"address", "outcome"}`` with outcome ``updated`` (canary
        passed, readmitted), ``skipped-dead`` (will get the new spec on
        reconnect), ``lost`` (failed mid-push; ditto), or
        ``canary-mismatch`` (answered the canary wrongly — kept out of
        routing until an operator joins it back).
        """
        self.prepare()
        if module is None:
            module = self.module
        new_spec = EngineSpec.from_module(module)
        expected = self._canary_expected(new_spec)
        with self._fleet_lock:
            self.spec = new_spec
        self.module = module
        header, arrays = wire.spec_to_wire(new_spec)
        report: List[dict] = []
        for replica in self._replicas_snapshot():
            entry = {"address": f"{replica.address[0]}:{replica.address[1]}"}
            if not replica.link.alive:
                entry["outcome"] = "skipped-dead"
                report.append(entry)
                continue
            was_admitted = replica.admitted
            self._drain_replica(replica, drain_timeout)
            try:
                kind, reply_header, _ = replica.exchange(
                    wire.SPEC, header, arrays, control=True
                )
                if kind == wire.ERROR:
                    raise wire.transported_error(
                        reply_header["type"], reply_header["message"]
                    )
                if kind != wire.OK:
                    raise wire.WireProtocolError(
                        f"SPEC answered with kind {kind}"
                    )
                if not self._canary_matches(replica, expected):
                    # Wrong answers are worse than no answers: keep the
                    # replica out of routing and drop the link so a human
                    # (or a reconnect + explicit join) has to bring it back.
                    replica.link.mark_dead()
                    entry["outcome"] = "canary-mismatch"
                    report.append(entry)
                    continue
            except ConnectionError:
                # Partitioned or died mid-push: the supervisor reconnects
                # with the new spec; restore the routing intent for then.
                replica.admitted = was_admitted
                entry["outcome"] = "lost"
                report.append(entry)
                self._wake.set()
                continue
            replica.admitted = was_admitted
            entry["outcome"] = "updated"
            report.append(entry)
        self.respecs += 1
        self.spec_version += 1
        return report

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _routable(self) -> List[_Replica]:
        return [
            replica
            for replica in self._replicas_snapshot()
            if replica.link.alive and replica.admitted
        ]

    def _weights(self, replicas: List[_Replica]) -> List[float]:
        """Routing weight per replica: measured rows/second, mean for new.

        A replica without a measurement yet (fresh joiner) gets the mean
        weight of the measured ones — it is neither flooded nor starved
        until its first shards establish an EWMA.
        """
        known = [
            1.0 / replica.ewma_row_seconds
            for replica in replicas
            if replica.ewma_row_seconds
        ]
        default = (sum(known) / len(known)) if known else 1.0
        return [
            (1.0 / replica.ewma_row_seconds)
            if replica.ewma_row_seconds
            else default
            for replica in replicas
        ]

    def _ordered_routable(self) -> Tuple[List[_Replica], List[float]]:
        routable = self._routable()
        weights = self._weights(routable)
        order = sorted(
            range(len(routable)),
            key=lambda index: (-weights[index], routable[index].address),
        )
        return (
            [routable[index] for index in order],
            [weights[index] for index in order],
        )

    def _recall_shard(
        self,
        replica: _Replica,
        codes: np.ndarray,
        seeds: np.ndarray,
        control: bool = False,
    ) -> BatchRecognitionResult:
        """One ``RECALL`` round-trip on ``replica``, its reply checked.

        An ``ERROR`` reply re-raises the worker's transported error; a
        reply of the wrong kind or shape raises
        :class:`~repro.backends.wire.WireProtocolError`.
        """
        kind, header, arrays = replica.exchange(
            wire.RECALL,
            {"count": len(seeds)},
            {"codes": codes, "seeds": seeds},
            control=control,
        )
        if kind == wire.ERROR:
            raise wire.transported_error(header["type"], header["message"])
        if kind != wire.RESULT:
            raise wire.WireProtocolError(f"RECALL answered with kind {kind}")
        return wire.result_from_wire(arrays, len(seeds))

    def _dispatch_shards(
        self, codes: np.ndarray, seeds: np.ndarray
    ) -> List[BatchRecognitionResult]:
        """Health-weighted shard dispatch with retry on the survivors.

        The first round sizes shards proportionally to replica speed
        (fastest replica, biggest shard); a shard lost to a dying — or
        just-drained — replica re-queues for the remaining routable
        members.  So does a shard whose reply fails this side's checks
        (:class:`~repro.backends.wire.WireProtocolError`), and its
        replica leaves routing until an operator readmits it with
        :meth:`join`: a replica that answers wrongly once may do so
        again.  An error the worker transported back (bad codes, say)
        fails the batch unchanged.  The retryable :class:`WorkerCrashedError`
        surfaces only when no routable replica remains, or when a shard
        has burned its retry budget, so a crash-looping worker
        (reconnects fine, dies on every command) cannot spin a request
        forever.
        """
        self.prepare()
        routable = self._routable()
        if not routable:
            self._wake.set()
            deadline = time.monotonic() + min(1.0, self.connect_timeout)
            while not routable and time.monotonic() < deadline:
                time.sleep(0.02)
                routable = self._routable()
        if not routable:
            raise WorkerCrashedError(
                f"no routable {self.name} replica remains at "
                f"{[r.address for r in self._replicas_snapshot()]}; the batch "
                "was not started and is safe to retry"
            )
        ordered, weights = self._ordered_routable()
        pending = list(weighted_shards(len(seeds), weights, self.min_shard_size))
        chunks: Dict[int, BatchRecognitionResult] = {}
        attempts: Dict[Tuple[int, int], int] = {}
        max_attempts = max(3, 2 * len(self._replicas_snapshot()))
        while pending:
            ordered, _ = self._ordered_routable()
            if not ordered:
                raise WorkerCrashedError(
                    f"every routable {self.name} replica was lost with shards in "
                    "flight; the request was not completed and is safe to retry"
                )
            round_shards = pending[: len(ordered)]
            pending = pending[len(ordered):]
            threads = []
            outcomes: List[Optional[BaseException]] = [None] * len(round_shards)

            def run(index: int, replica: _Replica, bounds: Tuple[int, int]) -> None:
                begin, end = bounds
                started = time.monotonic()
                try:
                    chunks[begin] = self._recall_shard(
                        replica, codes[begin:end], seeds[begin:end]
                    )
                except wire.WireProtocolError as error:
                    replica.admitted = False
                    outcomes[index] = error
                except BaseException as error:  # noqa: BLE001 — sorted below
                    outcomes[index] = error
                else:
                    replica.observe(
                        end - begin,
                        time.monotonic() - started,
                        self.latency_alpha,
                    )

            for index, (replica, bounds) in enumerate(
                zip(ordered, round_shards)
            ):
                thread = threading.Thread(
                    target=run, args=(index, replica, bounds), daemon=True
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            for bounds, error in zip(round_shards, outcomes):
                if error is None:
                    continue
                if not isinstance(error, (ConnectionError, wire.WireProtocolError)):
                    raise error
                attempts[bounds] = attempts.get(bounds, 0) + 1
                if attempts[bounds] >= max_attempts:
                    raise WorkerCrashedError(
                        f"shard {bounds} failed on {attempts[bounds]} "
                        "replicas in a row; giving up this request "
                        "(safe to retry)"
                    ) from error
                pending.append(bounds)
                self.retried_shards += 1
                self._wake.set()
        return [chunks[begin] for begin in sorted(chunks)]

    # ------------------------------------------------------------------ #
    # RecallBackend surface
    # ------------------------------------------------------------------ #
    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        codes, seeds = check_batch(
            "codes_batch", codes_batch, self.module.crossbar.rows, request_seeds
        )
        return concatenate_batch_results(self._dispatch_shards(codes, seeds))

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _replica_info(self, replica: _Replica) -> dict:
        ewma = replica.ewma_row_seconds
        return {
            "address": f"{replica.address[0]}:{replica.address[1]}",
            "state": replica.state,
            "origin": replica.origin,
            "ewma_row_ms": None if ewma is None else round(ewma * 1e3, 6),
            "shards_served": replica.shards_served,
            "rows_served": replica.rows_served,
        }

    def fleet_stats(self) -> dict:
        """JSON snapshot of the replica set, health and control counters.

        Served by the ``STATUS`` control frame and, through
        :meth:`repro.serving.service.RecognitionService.stats`, as the
        ``fleet`` section of the HTTP ``/stats`` endpoint (schema in
        ``src/repro/serving/README.md``).
        """
        replicas = self._replicas_snapshot()
        routable = [r for r in replicas if r.link.alive and r.admitted]
        weights = dict(
            zip((id(r) for r in routable), self._weights(routable))
        )
        total = sum(weights.values()) or 1.0
        entries = []
        for replica in replicas:
            entry = self._replica_info(replica)
            weight = weights.get(id(replica))
            entry["weight"] = (
                None if weight is None else round(weight / total, 6)
            )
            entries.append(entry)
        control = self.control_address
        return {
            "replicas": entries,
            "routable": len(routable),
            "spec_version": self.spec_version,
            "control_address": (
                None if control is None else f"{control[0]}:{control[1]}"
            ),
            "counters": {
                "joins": self.joins,
                "readmits": self.readmits,
                "drains": self.drains,
                "respecs": self.respecs,
                "reconnects": self.reconnects,
                "retried_shards": self.retried_shards,
            },
        }

    def __del__(self):  # pragma: no cover - last-resort cleanup
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# Control socket
# ---------------------------------------------------------------------- #
class FleetControlServer(_FrameServer):
    """Serves the fleet admin verbs on a TCP control socket.

    Speaks the ordinary wire framing and handshake of the worker agent
    (a torn or hostile frame is answered/dropped exactly like on a
    worker socket, never crashes the loop), then maps ``STATUS`` /
    ``JOIN`` / ``DRAIN`` / ``RESPEC`` frames onto the supervisor.  Lives
    inside the serving process; started by :meth:`FleetSupervisor.prepare`
    when a ``control`` address was configured.
    """

    role = "control socket"
    thread_prefix = "fleet-control"

    def __init__(
        self, supervisor: FleetSupervisor, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port, backlog=8)
        self._supervisor = supervisor
        self.start()

    def _command(self, conn, kind, header, arrays, state) -> None:
        if kind == wire.STATUS:
            wire.send_frame(conn, wire.OK, {"fleet": self._supervisor.fleet_stats()})
        elif kind == wire.JOIN:
            info = self._supervisor.join(header["address"])
            wire.send_frame(conn, wire.OK, {"replica": info})
        elif kind == wire.DRAIN:
            info = self._supervisor.drain(
                header["address"], timeout=float(header.get("timeout", 30.0))
            )
            wire.send_frame(conn, wire.OK, {"replica": info})
        elif kind == wire.RESPEC:
            report = self._supervisor.respec(
                drain_timeout=float(header.get("timeout", 30.0))
            )
            wire.send_frame(conn, wire.OK, {"replicas": report})
        else:
            raise wire.WireProtocolError(f"unknown control frame kind {kind}")


class FleetAdminClient:
    """Client side of the control socket (``python -m repro admin``).

    One persistent connection, one verb per call; every reply ``ERROR``
    frame resurfaces as the transported exception type, so a typo'd
    address raises ``ValueError`` here just as it would in-process.
    """

    def __init__(
        self,
        address: Union[str, Address],
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
    ) -> None:
        if isinstance(address, str):
            host, _, port_text = address.strip().rpartition(":")
            address = (host, int(port_text))
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.settimeout(io_timeout)
            wire.send_frame(
                self._sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION}
            )
            kind, version, header, _ = wire.recv_frame(self._sock)
            if kind == wire.ERROR:
                raise wire.transported_error(header["type"], header["message"])
            if kind != wire.HELLO or version != wire.PROTOCOL_VERSION:
                raise wire.ProtocolVersionError(
                    f"control socket answered kind {kind} protocol {version}"
                )
        except BaseException:
            self._sock.close()
            raise

    def _command(self, kind: int, header: Optional[dict] = None) -> dict:
        wire.send_frame(self._sock, kind, header)
        reply_kind, _, reply_header, _ = wire.recv_frame(self._sock)
        if reply_kind == wire.ERROR:
            raise wire.transported_error(
                reply_header["type"], reply_header["message"]
            )
        if reply_kind != wire.OK:
            raise wire.WireProtocolError(
                f"control verb {kind} answered with kind {reply_kind}"
            )
        return reply_header

    def status(self) -> dict:
        """The supervisor's :meth:`FleetSupervisor.fleet_stats` snapshot."""
        return self._command(wire.STATUS)["fleet"]

    def join(self, worker_address: str) -> dict:
        """Admit (or readmit) ``host:port`` into the fleet."""
        return self._command(wire.JOIN, {"address": worker_address})["replica"]

    def drain(self, worker_address: str, timeout: float = 30.0) -> dict:
        """Take ``host:port`` out of routing once its in-flight shard ends."""
        return self._command(
            wire.DRAIN, {"address": worker_address, "timeout": timeout}
        )["replica"]

    def respec(self, timeout: float = 30.0) -> List[dict]:
        """Trigger a rolling re-push of the current spec across the fleet."""
        return self._command(wire.RESPEC, {"timeout": timeout})["replicas"]

    def close(self) -> None:
        try:
            wire.send_frame(self._sock, wire.BYE)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "FleetAdminClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
