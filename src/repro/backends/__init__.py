"""Pluggable execution backends for batched associative recall.

The numerical engine (:mod:`repro.crossbar.batched`) knows *what* to
compute; this package owns *where and how* it executes:

``serial``
    :class:`~repro.backends.serial.SerialBackend` — one pre-factorised
    engine on the caller's thread.  The equivalence reference, and the
    default (:data:`~repro.backends.registry.DEFAULT_BACKEND`) of every
    consumer: the batched engine already keeps the host's BLAS threads
    busy, so nothing in-process has been measured to beat it.

``fleet``
    :class:`~repro.backends.fleet.FleetSupervisor` — the one remote
    transport: worker agents spoken to over the pickle-free
    length-prefixed TCP protocol of :mod:`repro.backends.wire`
    (:mod:`repro.backends.remote` holds the agent and the link).  Each
    agent rebuilds its own pre-factorised engine from an
    :class:`~repro.backends.base.EngineSpec` (configuration + programmed
    conductances, never a factorisation) and answers one verb,
    ``RECALL``.  ``worker_addresses`` adopts agents started with
    ``python -m repro worker --listen HOST:PORT`` on any host (no agent
    is spawned and, unless ``control`` is given, no control socket is
    served); ``workers=N`` without addresses spawns N local agents, so
    the same backend runs engine replicas in other processes on one host
    or across machines.  Links are supervised (heartbeats, reconnect with
    backoff) and in-flight shards retry onto surviving replicas, so
    recall survives worker loss.  On top of that it is a control
    plane: spawns or adopts worker agents, weights shard routing by
    measured per-replica EWMA latency (slow replicas get proportionally
    fewer rows, never declared dead), admits workers *joining a running
    service*, drains replicas out of routing without disconnecting them,
    and performs rolling ``EngineSpec`` updates verified by a canary
    recall — zero-downtime reprogramming.  Admin verbs (``status``/``join``/``drain``/
    ``respec``) are served on a control socket
    (:class:`~repro.backends.fleet.FleetControlServer`, spoken to by
    :class:`~repro.backends.fleet.FleetAdminClient` and
    ``python -m repro admin``).

All backends execute the *seeded* recall path, so results are a pure
function of ``(module, codes, seed)`` — invariant across backend choice,
worker count and shard boundaries (``tests/backends/``), which is what
makes the strategy a deployment decision instead of a correctness one.
Consumers select a backend by name through the registry
(:func:`create_backend` / :func:`resolve_backend`); see ``README.md`` in
this directory for the protocol and the custom-backend recipe.
"""

from repro.backends.base import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    WorkerCrashedError,
    contiguous_shards,
)
from repro.backends.fleet import (
    FleetAdminClient,
    FleetControlServer,
    FleetSupervisor,
    weighted_shards,
)
from repro.backends.registry import (
    DEFAULT_BACKEND,
    UnknownBackendError,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.remote import (
    WorkerServer,
    parse_worker_addresses,
    spawn_local_worker,
)
from repro.backends.serial import SerialBackend

__all__ = [
    "BackendCapabilities",
    "DEFAULT_BACKEND",
    "EngineSpec",
    "FleetAdminClient",
    "FleetControlServer",
    "FleetSupervisor",
    "RecallBackend",
    "SerialBackend",
    "UnknownBackendError",
    "WorkerCrashedError",
    "WorkerServer",
    "backend_names",
    "contiguous_shards",
    "create_backend",
    "parse_worker_addresses",
    "register_backend",
    "resolve_backend",
    "spawn_local_worker",
    "weighted_shards",
]
