"""Tiny-length runs of every workload, their gates, and the command without the program."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from perfbench import traced, workloads
from perfbench.ledger import check_metric_name

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def templates(reference):
    return workloads.template_matrix(reference.dataset)


def test_bulk_recall_smoke_and_gate(reference):
    run = workloads.bulk_window(reference, seed=1, seconds=0.01, batch=16)
    assert run.attempted >= 1 and run.failed == 0 and run.mismatches == []
    assert 0.0 < run.extra["accuracy"] <= 1.0
    assert run.extra["energy_per_recognition_pj"] > 0

    amm = reference.amm
    codes, seeds = workloads.bulk_stream(1, 4).request(0, reference.codes)
    result = amm.recognise_batch_seeded(codes, seeds)
    good = (0, codes[0], int(seeds[0]), result.column_currents[0], result.winner[0])
    assert workloads.bulk_gate(amm, [good]) == []
    drifted = (0, codes[0], int(seeds[0]), result.column_currents[0] * (1 + 1e-6), result.winner[0])
    wrong_winner = (0, codes[0], int(seeds[0]), result.column_currents[0], result.winner[0] + 1)
    assert len(workloads.bulk_gate(amm, [drifted, wrong_winner])) == 2


def test_serve_mixed_smoke_and_gate(reference):
    run = workloads.serve_window(ROOT, reference, seed=1, seconds=0.3)
    assert run.attempted >= 2 and run.failed == 0 and run.mismatches == []
    assert run.extra["json_op_seconds"] and run.extra["binary_op_seconds"]
    assert run.extra["checked_rows"] > 0

    streams = workloads.serve_streams(1)
    codes, seeds = streams[0].request(0, reference.codes)
    expected = reference.amm.recognise_batch_seeded(codes, seeds)
    served = [
        {"winner": int(w), "dom_code": int(d), "accepted": bool(a), "tie": bool(t)}
        for w, d, a, t in zip(expected.winner, expected.dom_code, expected.accepted, expected.tie)
    ]
    classes = {"json": workloads.ClassWindow(checked=[(0, served)]), "binary": workloads.ClassWindow()}
    assert workloads.serve_gate(reference.amm, reference, streams, classes) == []
    corrupted = [dict(row) for row in served]
    corrupted[2]["dom_code"] += 1
    classes["json"].checked.append((0, corrupted))
    assert len(workloads.serve_gate(reference.amm, reference, streams, classes)) == 1


def test_design_sweep_smoke_and_gate(templates):
    points = (workloads.DESIGN_POINTS[2], workloads.DESIGN_POINTS[9])
    run = workloads.design_window(templates, seed=1, seconds=0.0, points=points)
    assert run.attempted == 2 and run.failed == 0 and run.mismatches == []

    point = workloads.design_point(templates, *points[0], seed=1)
    assert workloads.design_gate(point) is None
    assert workloads.design_gate(dataclasses.replace(point, min_margin=point.mean_margin + 0.1))
    assert workloads.design_gate(dataclasses.replace(point, mean_margin=math.nan))
    assert workloads.design_gate(dataclasses.replace(point, mean_margin=1.5, min_margin=0.0))


def test_traced_run_prints_every_per_layer_metric(capsys):
    _run, metrics = traced.traced_run(
        ROOT, Namespace(workload="bulk_recall", seed=2, seconds=0.2)
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (name, unit) for name, (_value, unit, _source) in metrics.items()
    ]
    for name, (value, _unit, _source) in metrics.items():
        check_metric_name(name)
        assert np.isfinite(value), name


def test_benchmark_json_names_are_valid():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in benchmark[key]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_recall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
