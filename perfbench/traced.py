"""The traced run: the per-layer ledger of one workload.

Every traced run builds the reference set-up inside spans, runs the
workload untraced for half the window (the reference the ledger is
checked against), then replays the workload's ops through the layer
calls inside spans for the other half.  The other two workloads' layer
calls are replayed briefly on the same inputs, so every per-layer metric
is measured in every run; the printed ledger marks which figures come
from the workload's own replay.  All spans are written to
``.perfbench/trace-<workload>-seed<seed>.json`` when the run ends.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict
from pathlib import Path

from perfbench import workloads
from perfbench.ledger import (
    NullTracer,
    Tracer,
    coverage,
    durations_by_name,
    overhead_share,
    percentile,
    totals_by_name,
)

#: Seconds of the in-process serving replay when it is a probe.
SERVE_PROBE_S = 1.5
#: Seconds of the bulk replay when it is a probe.
BULK_PROBE_S = 1.0
#: Sweep points replayed when design_sweep is a probe: one of each kind.
DESIGN_PROBE_POINTS = (workloads.DESIGN_POINTS[2], workloads.DESIGN_POINTS[9])

#: The per-layer metrics, their units and the replay that measures them.
PER_LAYER = {
    "devices.dac_us_per_row": ("us", "bulk_recall"),
    "crossbar.solve_us_per_row": ("us", "bulk_recall"),
    "core.wta.convert_us_per_row": ("us", "bulk_recall"),
    "core.amm.residual_us_per_row": ("us", "bulk_recall"),
    "core.power.energy_us_per_row": ("us", "bulk_recall"),
    "crossbar.chunk_size": ("count", "setup"),
    "host.cpu_per_wall": ("ratio", "untraced"),
    "datasets.generate_s": ("s", "setup"),
    "datasets.extract_us_per_row": ("us", "setup"),
    "core.pipeline.build_s": ("s", "setup"),
    "crossbar.prepare_s": ("s", "setup"),
    "serving.protocol.json_decode_us_per_row": ("us", "serve_mixed"),
    "serving.protocol.json_encode_us_per_row": ("us", "serve_mixed"),
    "backends.wire.encode_us_per_row": ("us", "serve_mixed"),
    "backends.wire.decode_us_per_row": ("us", "serve_mixed"),
    "serving.service.submit_us_per_row": ("us", "serve_mixed"),
    "serving.service.json_resolve_p50_ms": ("ms", "serve_mixed"),
    "serving.service.binary_resolve_p50_ms": ("ms", "serve_mixed"),
    "serving.service.batch_fill": ("rows", "serve_mixed"),
    "serving.service.queue_depth_max": ("count", "serve_mixed"),
    "serving.service.server_p50_ms": ("ms", "serve_mixed"),
    "serving.ceiling_ratio": ("ratio", "serve_mixed"),
    "host.server_cpu_per_wall": ("ratio", "serve_mixed"),
    "loadgen.cpu_per_wall": ("ratio", "serve_mixed"),
    "core.amm.build_ms": ("ms", "design_sweep"),
    "crossbar.direct_solve_ms": ("ms", "design_sweep"),
    "crossbar.factorise_ms": ("ms", "design_sweep"),
    "analysis.margins_ms": ("ms", "design_sweep"),
    "analysis.residual_ms": ("ms", "design_sweep"),
    "ledger.coverage": ("ratio", "own"),
    "trace.overhead_share": ("ratio", "own"),
}


def _per(total_ns: float, count: int, scale: float) -> float:
    return total_ns / count / scale


def bulk_ledger(tracer: Tracer, rows: int) -> dict:
    totals = totals_by_name(tracer.spans)
    us = {name: _per(totals[name], rows, 1e3) for name in (
        "devices.dac", "crossbar.solve", "core.wta.convert", "core.amm.recognise",
        "core.power.energy", "bulk.tally",
    )}
    return {
        "devices.dac_us_per_row": us["devices.dac"],
        "crossbar.solve_us_per_row": us["crossbar.solve"],
        "core.wta.convert_us_per_row": us["core.wta.convert"],
        "core.amm.residual_us_per_row": us["core.amm.recognise"]
        - us["devices.dac"] - us["crossbar.solve"] - us["core.wta.convert"],
        "core.power.energy_us_per_row": us["core.power.energy"],
        "_recognise_us_per_row": us["core.amm.recognise"],
        "_stages_us_per_row": us["core.amm.recognise"] + us["core.power.energy"] + us["bulk.tally"],
        "_op_us_per_row": _per(sum(durations_by_name(tracer.spans, "bulk.op")), rows, 1e3),
    }


def serve_ledger(tracer: Tracer, replay: dict) -> dict:
    totals = totals_by_name(tracer.spans)
    json_rows, binary_rows = replay["json_rows"], replay["binary_rows"]
    return {
        "serving.protocol.json_decode_us_per_row": _per(
            totals["serving.protocol.json_decode"], json_rows, 1e3),
        "serving.protocol.json_encode_us_per_row": _per(
            totals["serving.protocol.json_encode"], json_rows, 1e3),
        "backends.wire.encode_us_per_row": _per(totals["backends.wire.encode"], binary_rows, 1e3),
        "backends.wire.decode_us_per_row": _per(totals["backends.wire.decode"], binary_rows, 1e3),
        "serving.service.submit_us_per_row": _per(
            totals["serving.service.submit"], json_rows + binary_rows, 1e3),
        "serving.service.json_resolve_p50_ms": percentile(
            [value * 1e3 for value in replay["json_resolve_s"]], 50).value,
        "serving.service.binary_resolve_p50_ms": percentile(
            [value * 1e3 for value in replay["binary_resolve_s"]], 50).value,
    }


def design_ledger(tracer: Tracer, points: int, untraced_point_s: float) -> dict:
    totals = totals_by_name(tracer.spans)
    ms = {name: _per(totals[name], points, 1e6) for name in (
        "core.amm.build", "crossbar.factorise", "analysis.margins", "crossbar.direct_solve",
    )}
    stages = ms["core.amm.build"] + ms["crossbar.factorise"] + ms["analysis.margins"]
    return {
        "core.amm.build_ms": ms["core.amm.build"],
        "crossbar.direct_solve_ms": ms["crossbar.direct_solve"],
        "crossbar.factorise_ms": ms["crossbar.factorise"],
        "analysis.margins_ms": ms["analysis.margins"],
        "analysis.residual_ms": untraced_point_s * 1e3 - stages,
        "_stages_ms": stages,
        "_op_ms": _per(sum(durations_by_name(tracer.spans, "design.op")), points, 1e6),
    }


def serve_counters(stats: dict) -> dict:
    return {
        "serving.service.batch_fill": stats["batches"]["mean_fill"],
        "serving.service.queue_depth_max": stats["queue_depth"]["max"],
        "serving.service.server_p50_ms": stats["latency"]["p50_ms"],
    }


def traced_run(root: Path, arguments):
    """Run the traced mode; returns ``(untraced run, per-layer metrics)``."""
    workload, seed, seconds = arguments.workload, arguments.seed, arguments.seconds
    half = seconds / 2.0
    tracers = {name: Tracer() for name in ("setup", "bulk_recall", "serve_mixed", "design_sweep")}

    reference = workloads.load_reference(tracers["setup"], build=True)
    setup = totals_by_name(tracers["setup"].spans, self_time=False)
    with tracers["setup"].span("datasets.templates"):
        templates = workloads.template_matrix(reference.dataset)
    metrics = {
        "datasets.generate_s": setup["datasets.generate"] / 1e9,
        "datasets.extract_us_per_row": setup["datasets.extract"] / len(reference.codes) / 1e3,
        "core.pipeline.build_s": setup["core.pipeline.build"] / 1e9,
        "crossbar.prepare_s": setup["crossbar.prepare"] / 1e9,
        "crossbar.chunk_size": reference.amm.solver.batch_engine.chunk_size,
        "serving.ceiling_ratio": 0.0,
        "host.server_cpu_per_wall": 0.0,
        "loadgen.cpu_per_wall": 0.0,
    }
    notes = {}

    # The workload itself, untraced: the reference the ledger is checked against.
    if workload == "bulk_recall":
        run = workloads.bulk_window(reference, seed, half)
    elif workload == "serve_mixed":
        run = workloads.serve_window(root, reference, seed, half)
    else:
        run = workloads.design_window(templates, seed, half)
    metrics["host.cpu_per_wall"] = run.cpu_per_wall
    untraced_op_s = statistics.fmean(run.op_seconds)

    # bulk_recall layers.
    bulk_batch = workloads.BULK_BATCH
    if workload == "serve_mixed":
        bulk_batch = max(1, round(run.extra["batch_fill"]))
    if workload == "bulk_recall":
        bulk = workloads.bulk_replay(reference, seed, tracers["bulk_recall"], seconds=half)
    else:
        bulk = workloads.bulk_replay(
            reference, seed, tracers["bulk_recall"], seconds=BULK_PROBE_S, batch=bulk_batch
        )
    bulk_figures = bulk_ledger(tracers["bulk_recall"], bulk["rows"])

    # serve_mixed layers: the in-process two-class loop.
    service = workloads.RecognitionService(reference.amm)
    try:
        if workload == "serve_mixed":
            plain = workloads.serve_replay(service, reference, seed, NullTracer(), seconds / 4.0)
            serve = workloads.serve_replay(service, reference, seed, tracers["serve_mixed"], seconds / 4.0)
        else:
            serve = workloads.serve_replay(service, reference, seed, tracers["serve_mixed"], SERVE_PROBE_S)
        replay_stats = service.stats()
    finally:
        service.close()
    metrics.update(serve_ledger(tracers["serve_mixed"], serve))

    # design_sweep layers.
    if workload == "design_sweep":
        design = workloads.design_replay(templates, seed, tracers["design_sweep"], seconds=half)
        design_figures = design_ledger(tracers["design_sweep"], design["ops"], untraced_op_s)
    else:
        probe = workloads.design_window(templates, seed, 0.0, points=DESIGN_PROBE_POINTS)
        design = workloads.design_replay(
            templates, seed, tracers["design_sweep"], 0.0, points=DESIGN_PROBE_POINTS
        )
        design_figures = design_ledger(
            tracers["design_sweep"], design["ops"], statistics.fmean(probe.op_seconds)
        )

    metrics.update({k: v for k, v in bulk_figures.items() if not k.startswith("_")})
    metrics.update({k: v for k, v in design_figures.items() if not k.startswith("_")})

    # Coverage and tracing overhead of the workload's own ledger.
    if workload == "bulk_recall":
        untraced_us_per_row = statistics.fmean(bulk["untraced_op_s"]) / bulk["batch"] * 1e6
        metrics["ledger.coverage"] = coverage([bulk_figures["_stages_us_per_row"]], untraced_us_per_row)
        metrics["trace.overhead_share"] = overhead_share(bulk_figures["_op_us_per_row"], untraced_us_per_row)
        metrics.update(serve_counters(replay_stats))
    elif workload == "design_sweep":
        metrics["ledger.coverage"] = coverage([design_figures["_stages_ms"]], untraced_op_s * 1e3)
        metrics["trace.overhead_share"] = overhead_share(design_figures["_op_ms"], untraced_op_s * 1e3)
        metrics.update(serve_counters(replay_stats))
    else:
        served_us_per_row = run.window_s / run.rows * 1e6
        traced_us_per_row = serve["window_s"] / serve["rows"] * 1e6
        plain_us_per_row = plain["window_s"] / plain["rows"] * 1e6
        metrics["ledger.coverage"] = coverage([traced_us_per_row], served_us_per_row)
        metrics["trace.overhead_share"] = overhead_share(traced_us_per_row, plain_us_per_row)
        metrics["serving.service.batch_fill"] = run.extra["batch_fill"]
        metrics["serving.service.queue_depth_max"] = run.extra["queue_depth_max"]
        metrics["serving.service.server_p50_ms"] = run.extra["server_p50_ms"]
        # Served rows/s over recall rows/s at the served mean batch size.
        metrics["serving.ceiling_ratio"] = bulk_figures["_recognise_us_per_row"] / served_us_per_row
        metrics["host.server_cpu_per_wall"] = run.extra["server_cpu_per_wall"]
        metrics["loadgen.cpu_per_wall"] = run.cpu_per_wall
        notes["serving.frontend_us_per_row"] = served_us_per_row - plain_us_per_row
        notes["served_us_per_row"] = served_us_per_row
        notes["replay_us_per_row"] = plain_us_per_row
        notes["ceiling_batch"] = bulk_batch

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({name: [asdict(span) for span in tracer.spans] for name, tracer in tracers.items()}, handle)
    notes["spans_written_to"] = str(path.relative_to(root))
    notes["own_replay_ops"] = {"bulk_recall": bulk["ops"], "design_sweep": design["ops"],
                               "serve_mixed": serve["rows"]}[workload]
    for key, value in notes.items():
        print(f"{key} {value}")
    return run, {
        name: (metrics[name], unit, "own replay" if source in (workload, "own") else source)
        for name, (unit, source) in PER_LAYER.items()
    }
