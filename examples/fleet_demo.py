"""Fleet control-plane smoke: join, kill and re-spec under live load.

The CI smoke for the ``fleet`` execution backend.  Where the remote
failover demo proves *survival* (a 503 window is allowed), this one
proves the control plane absorbs every membership event with **zero
failed requests** — the fleet's internal shard retry hides worker loss
entirely from the serving path:

1. spawn two ``python -m repro worker`` agents and boot the HTTP
   recognition service on ``backend="fleet"`` with a control socket;
2. drive sustained concurrent load, and while it runs: spawn a **third**
   worker and admit it through ``FleetAdminClient.join``, **kill** one
   of the original workers, then trigger a rolling **re-spec**;
3. require zero non-ok requests across the whole run, a post-load
   reference batch bit-equal in every discrete field to the serial
   answer, and a ``/stats`` fleet section listing all three replicas
   with the bumped spec version.

Exits non-zero on any violation.  Run with
``PYTHONPATH=src python examples/fleet_demo.py``.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Optional, Sequence

import numpy as np

from repro.backends import FleetAdminClient, spawn_local_worker
from repro.core.pipeline import build_pipeline
from repro.datasets.attlike import load_default_dataset
from repro.serving import (
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=8, help="stored classes")
    parser.add_argument("--concurrency", type=int, default=4, help="client threads")
    parser.add_argument("--seed", type=int, default=2013)
    arguments = parser.parse_args(argv)

    print("spawning two localhost worker agents ...", flush=True)
    victim, victim_address = spawn_local_worker()
    anchor, anchor_address = spawn_local_worker()
    print(f"  workers: {victim_address} (victim), {anchor_address}", flush=True)

    print(f"building a {arguments.subjects}-class pipeline ...", flush=True)
    dataset = load_default_dataset(subjects=arguments.subjects, seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    codes = pipeline.extractor.extract_many(dataset.test_images)
    reference_codes = codes[:8]
    reference_seeds = list(range(900, 908))
    reference = pipeline.amm.recognise_batch_seeded(
        reference_codes, np.asarray(reference_seeds)
    )

    service = RecognitionService(
        pipeline.amm,
        max_batch_size=16,
        max_wait=2e-3,
        workers=2,
        backend="fleet",
        backend_options={
            "worker_addresses": [victim_address, anchor_address],
            "min_shard_size": 2,
            "heartbeat_interval": 0.2,
            "backoff_base": 0.05,
            "control": ("127.0.0.1", 0),
        },
    )
    server = start_async_server(service, port=0)
    backend = service.pool.backend
    control_host, control_port = backend.control_address
    print(
        f"serving on http://127.0.0.1:{server.port} (backend=fleet, "
        f"control on {control_host}:{control_port})",
        flush=True,
    )

    outcomes = {"ok": 0, "failed": 0}
    lock = threading.Lock()
    stop = threading.Event()

    def drive(thread_index: int) -> None:
        with RecognitionClient("127.0.0.1", server.port, timeout=60.0) as client:
            request = 0
            while not stop.is_set():
                base = (thread_index * 1000) + request * 8
                rows = codes[(base // 8) % max(1, codes.shape[0] - 8):][:8]
                seeds = [base + offset for offset in range(rows.shape[0])]
                try:
                    results = client.recognise_many(rows, seeds=seeds)
                    ok = len(results) == rows.shape[0]
                    with lock:
                        outcomes["ok" if ok else "failed"] += 1
                except (ServerError, OSError):
                    with lock:
                        outcomes["failed"] += 1
                request += 1

    threads = [
        threading.Thread(target=drive, args=(index,), name=f"load-{index}")
        for index in range(arguments.concurrency)
    ]
    for thread in threads:
        thread.start()

    failures = []
    joiner = None
    try:
        # Event 1: a third worker joins the running fleet mid-load.
        time.sleep(0.4)
        print("  joining a third worker mid-load ...", flush=True)
        joiner, joiner_address = spawn_local_worker()
        with FleetAdminClient((control_host, control_port)) as admin:
            replica = admin.join(f"{joiner_address[0]}:{joiner_address[1]}")
            if replica["state"] != "live":
                failures.append(f"joiner admitted in state {replica['state']!r}")

        # Event 2: one original member dies under load.
        time.sleep(0.4)
        print("  killing the victim worker ...", flush=True)
        victim.terminate()
        victim.wait(timeout=10.0)

        # Event 3: rolling re-spec across whoever is left.
        time.sleep(0.4)
        print("  rolling re-spec ...", flush=True)
        with FleetAdminClient((control_host, control_port)) as admin:
            report = admin.respec(timeout=30.0)
        updated = sum(1 for entry in report if entry["outcome"] == "updated")
        if updated < 2:
            failures.append(f"re-spec updated only {updated} replicas: {report}")

        time.sleep(0.4)  # keep load flowing past the roll
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)

    if outcomes["failed"]:
        failures.append(f"{outcomes['failed']} failed requests (expected zero)")
    if outcomes["ok"] == 0:
        failures.append("no request succeeded at all")
    print(
        f"load done: {outcomes['ok']} ok, {outcomes['failed']} failed",
        flush=True,
    )

    # Invariant results: after join + kill + re-spec, the answer is still
    # bit-equal to the serial reference in every discrete field.
    with RecognitionClient("127.0.0.1", server.port, timeout=60.0) as client:
        results = client.recognise_many(reference_codes, seeds=reference_seeds)
    diverged = False
    for index, row in enumerate(results):
        if (
            row["winner_column"] != int(reference.winner_column[index])
            or row["dom_code"] != int(reference.dom_code[index])
            or row["accepted"] != bool(reference.accepted[index])
        ):
            failures.append(f"post-events result {index} diverged: {row}")
            diverged = True
    if not diverged:
        print("post-events reference batch matches the serial answer", flush=True)

    # The /stats fleet section reflects the full history: three replicas
    # known, two routable (the victim is dead), spec version bumped.
    stats = service.stats().get("fleet", {})
    replicas = stats.get("replicas", [])
    if len(replicas) != 3:
        failures.append(f"expected 3 replicas in /stats, saw {len(replicas)}")
    if stats.get("routable") != 2:
        failures.append(f"expected 2 routable replicas, saw {stats.get('routable')}")
    if stats.get("spec_version") != 1:
        failures.append(f"expected spec_version 1, saw {stats.get('spec_version')}")
    counters = stats.get("counters", {})
    print(
        f"fleet stats: {len(replicas)} replicas, {stats.get('routable')} routable, "
        f"spec v{stats.get('spec_version')}, counters {counters}",
        flush=True,
    )

    stop_async_server(server)
    for process in (anchor, joiner):
        if process is not None:
            process.terminate()
            process.wait(timeout=10.0)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", flush=True)
        return 1
    print("fleet control-plane smoke passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
