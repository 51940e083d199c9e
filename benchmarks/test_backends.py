"""Execution-backend benchmark: serial vs a fleet of spawned or adopted agents.

Recalls the reference 128x40 corpus through each registered execution
backend (parasitic path, per-request seeded substreams — the exact
serving workload), best of several passes per point, and records the
measured throughput trajectory into
``BENCH_backends.json`` at the repository root, uploaded as a CI
artifact next to the recall and serving trajectories.  The ``fleet``
section spawns its own ``python -m repro worker`` agents on localhost
(``workers=N``) at 1, 2 and all-cores counts; the ``remote`` section
is a ``fleet`` that adopts 1 and 2 agents spawned up front
(``worker_addresses``).  Both trajectories include the
wire-protocol overhead a replica in another process pays per dispatch.

The benchmark also re-asserts the cross-backend contract on the timed
inputs (identical winners and DOM codes for identical seeds) and, on
multi-core hosts, that engine replicas in other processes pay for
themselves: the best ``fleet`` point must reach at least
``REQUIRED_FLEET_SPEEDUP`` x the serial throughput (a reduced bound on
2-3-core hosts, recording-only on one core, where a second replica is
pure IPC overhead).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.backends import create_backend

#: Where the backend trajectory is persisted.
OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backends.json"

#: Images timed per measurement (corpus slices repeat to reach this).
IMAGES_PER_POINT = 400

#: Recall batch handed to the backend per call (the serving max batch).
DISPATCH_BATCH = 64

#: Timed passes over the images per point.  One pass takes ~20 ms, so a
#: single scheduler or BLAS stall would decide a one-pass point.
TIMED_PASSES = 10

#: The acceptance bound: spawned fleet vs the serial engine at all cores.
REQUIRED_FLEET_SPEEDUP = 2.0
#: Softer bound applied on 2-3-core hosts.
REDUCED_FLEET_SPEEDUP = 1.2


def worker_sweep() -> list:
    cores = os.cpu_count() or 1
    return sorted({1, min(2, cores) if cores >= 2 else 1, cores} | {2})


@pytest.fixture(scope="module")
def recall_codes(full_pipeline, full_dataset):
    codes = full_pipeline.extractor.extract_many(full_dataset.test_images)
    repeats = -(-IMAGES_PER_POINT // codes.shape[0])  # ceil
    return np.tile(codes, (repeats, 1))[:IMAGES_PER_POINT]


@pytest.fixture(scope="module")
def request_seeds(recall_codes):
    return np.arange(recall_codes.shape[0], dtype=np.int64)


def measure(backend, codes, seeds) -> dict:
    """Throughput of seeded recall in serving-sized dispatch batches.

    The best of :data:`TIMED_PASSES` passes over ``codes`` is recorded
    (the median next to it); every pass must give the same answers.
    """
    backend.prepare()
    # Warm up (first-touch allocations, worker readiness).
    backend.recall_batch_seeded(codes[:DISPATCH_BATCH], seeds[:DISPATCH_BATCH])
    answers = None
    seconds = []
    for _ in range(TIMED_PASSES):
        winners = np.empty(codes.shape[0], dtype=np.int64)
        dom_codes = np.empty(codes.shape[0], dtype=np.int64)
        start = time.perf_counter()
        for begin in range(0, codes.shape[0], DISPATCH_BATCH):
            end = min(begin + DISPATCH_BATCH, codes.shape[0])
            result = backend.recall_batch_seeded(codes[begin:end], seeds[begin:end])
            winners[begin:end] = result.winner_column
            dom_codes[begin:end] = result.dom_code
        seconds.append(time.perf_counter() - start)
        if answers is None:
            answers = (winners, dom_codes)
        assert np.array_equal(winners, answers[0]) and np.array_equal(dom_codes, answers[1])
    elapsed = min(seconds)
    return {
        "images": int(codes.shape[0]),
        "passes": TIMED_PASSES,
        "seconds": elapsed,
        "images_per_second": codes.shape[0] / elapsed,
        "median_images_per_second": codes.shape[0] / statistics.median(seconds),
        "winners": answers[0],
        "dom_codes": answers[1],
    }


#: Localhost worker agents spawned up front for the adopted-agent
#: section (a ``fleet`` given their ``worker_addresses``; its JSON key
#: stays ``"remote"`` so the trajectory remains comparable).
REMOTE_AGENTS = 2


def test_backend_throughput_matrix(full_pipeline, recall_codes, request_seeds, write_result):
    from repro.backends import spawn_local_worker

    amm = full_pipeline.amm
    cores = os.cpu_count() or 1
    sweep = worker_sweep()

    agents = [spawn_local_worker() for _ in range(REMOTE_AGENTS)]
    addresses = [address for _, address in agents]
    # (trajectory key, registry name, worker counts)
    plan = [
        ("serial", "serial", [1]),
        ("fleet", "fleet", sweep),
        ("remote", "fleet", list(range(1, REMOTE_AGENTS + 1))),
    ]
    trajectory = {}
    reference = None
    try:
        for name, backend_name, counts in plan:
            points = []
            for workers in counts:
                options = {}
                if name == "remote":
                    options["worker_addresses"] = addresses[:workers]
                backend = create_backend(
                    backend_name, amm, workers=workers,
                    min_shard_size=DISPATCH_BATCH // 4, **options,
                )
                try:
                    point = measure(backend, recall_codes, request_seeds)
                finally:
                    backend.close()
                # The equivalence contract on the timed inputs: identical
                # discrete outputs for identical seeds, every backend/count.
                if reference is None:
                    reference = point
                assert np.array_equal(point["winners"], reference["winners"]), (
                    f"{name} x{workers} disagrees with the serial reference winners"
                )
                assert np.array_equal(point["dom_codes"], reference["dom_codes"]), (
                    f"{name} x{workers} disagrees with the serial reference DOM codes"
                )
                points.append(
                    {
                        "workers": workers,
                        "images": point["images"],
                        "passes": point["passes"],
                        "seconds": point["seconds"],
                        "images_per_second": point["images_per_second"],
                        "median_images_per_second": point["median_images_per_second"],
                    }
                )
            trajectory[name] = points
    finally:
        for process, _ in agents:
            process.terminate()
        for process, _ in agents:
            process.wait(timeout=10.0)

    def best(name):
        return max(trajectory[name], key=lambda p: p["images_per_second"])

    serial_ips = trajectory["serial"][0]["images_per_second"]
    fleet_best = best("fleet")
    fleet_vs_serial = fleet_best["images_per_second"] / serial_ips
    payload = {
        "cores": cores,
        "array": {"rows": amm.crossbar.rows, "columns": amm.crossbar.columns},
        "dispatch_batch": DISPATCH_BATCH,
        "worker_sweep": sweep,
        "backends": trajectory,
        "serial_images_per_second": serial_ips,
        "remote_agents": REMOTE_AGENTS,
        "best": {
            "fleet": fleet_best,
            "remote": best("remote"),
        },
        "fleet_vs_serial_speedup": fleet_vs_serial,
        "remote_vs_serial_speedup": (
            best("remote")["images_per_second"] / serial_ips
        ),
        "speedup_bound_applied": (
            REQUIRED_FLEET_SPEEDUP
            if cores >= 4
            else (REDUCED_FLEET_SPEEDUP if cores >= 2 else None)
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"cores={cores}  serial: {serial_ips:8.1f} images/s"]
    for name in ("fleet", "remote"):
        for point in trajectory[name]:
            lines.append(
                f"{name:<10s} x{point['workers']:<2d} "
                f"{point['images_per_second']:8.1f} images/s"
            )
    lines.append(f"fleet vs serial (best): {fleet_vs_serial:.2f}x")
    write_result("backends", "\n".join(lines))

    # Perf acceptance only where the hardware can express it: on a
    # single core a second engine replica is pure IPC overhead by
    # construction.
    if cores >= 4:
        assert fleet_vs_serial >= REQUIRED_FLEET_SPEEDUP, (
            f"spawned fleet reached only {fleet_vs_serial:.2f}x the serial "
            f"throughput on {cores} cores (required {REQUIRED_FLEET_SPEEDUP}x)"
        )
    elif cores >= 2:
        assert fleet_vs_serial >= REDUCED_FLEET_SPEEDUP, (
            f"spawned fleet reached only {fleet_vs_serial:.2f}x the serial "
            f"throughput on {cores} cores (required {REDUCED_FLEET_SPEEDUP}x)"
        )

