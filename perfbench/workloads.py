"""The three workloads: untraced runs, correctness gates and traced replays.

``bulk_recall``
    One thread pushes 256-row batches through
    ``AssociativeMemoryModule.recognise_batch_seeded`` on the reference
    128x40 parasitic design, then tallies accuracy and models the energy
    per recognition of every row.
``serve_mixed``
    A spawned server process (reference pipeline, ``RecognitionService``
    and ``start_async_server`` at library defaults) answers two client
    threads: 4-row JSON requests and 64-row binary requests.
``design_sweep``
    Whole passes over the 14 Fig. 9 points (7 ``r_min``, 7 ΔV) on the
    reference templates; every point rebuilds and factorises a module.

Each workload has an untraced run (what the end-to-end metrics measure)
and a traced replay that calls the same layer functions in the same order
inside spans (what the per-layer ledger measures).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import build_pipeline, load_default_dataset
from repro.analysis.margins import (
    MarginPoint,
    conductance_range_sweep,
    delta_v_sweep,
    detection_margins,
)
from repro.backends import wire
from repro.core.amm import AssociativeMemoryModule
from repro.core.config import default_parameters
from repro.core.pipeline import default_extractor
from repro.core.power import SpinAmmPowerModel
from repro.datasets.features import build_templates, templates_to_matrix
from repro.serving import (
    BinaryRecognitionClient,
    RecognitionClient,
    RecognitionService,
    result_to_json,
)
from repro.serving.protocol import decode_json_body, encode_json, parse_recognise

from perfbench import host, inputs
from perfbench.ledger import NullTracer

#: Dataset and construction seed of the reference design.
REFERENCE_SEED = 2013
#: Rows per bulk_recall batch.
BULK_BATCH = 256
#: Rows per request of the two serve_mixed classes.
JSON_ROWS, BINARY_ROWS = 4, 64
#: Fig. 9 sweep points, as in ``benchmarks/test_fig9_margins.py``.
FIG9A_R_MIN_VALUES = (200.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)
FIG9B_DELTA_V_VALUES = (60e-3, 45e-3, 30e-3, 20e-3, 10e-3, 5e-3, 2e-3)
DESIGN_POINTS = tuple(("r_min", value) for value in FIG9A_R_MIN_VALUES) + tuple(
    ("delta_v", value) for value in FIG9B_DELTA_V_VALUES
)
RESISTANCE_RATIO = 32.0
NUM_INPUTS = 4

#: Bulk batches run before the timed window.
BULK_WARMUP_OPS = 2
#: Seconds both serve clients run before the timed window.
SERVE_WARMUP_S = 1.0
#: Rows of bulk_recall checked against the direct sparse solve per run.
BULK_GATE_ROWS = 8
BULK_GATE_RTOL = 1e-9
#: Every ``SERVE_GATE_STRIDE``-th request of each class is checked.
SERVE_GATE_STRIDE = 8
#: Bound on waiting for one served result or for the server to come up.
RESULT_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 120.0


@dataclass
class Run:
    """What one untraced run measured."""

    setup_s: List[float]
    op_seconds: List[float]
    rows: int
    window_s: float
    attempted: int
    failed: int
    mismatches: List[str]
    peak_rss_mb: float
    cpu_per_wall: float
    #: Workload-specific results and counters, printed next to the metrics.
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Reference:
    """The reference corpus, its test-image codes and (optionally) the pipeline."""

    dataset: object
    codes: np.ndarray
    labels: np.ndarray
    pipeline: object = None

    @property
    def amm(self) -> AssociativeMemoryModule:
        return self.pipeline.amm


def load_reference(tracer=None, build: bool = True) -> Reference:
    """Generate the corpus and codes; build and prepare the pipeline if asked."""
    tracer = tracer or NullTracer()
    with tracer.span("datasets.generate"):
        dataset = load_default_dataset(seed=REFERENCE_SEED)
    extractor = default_extractor()
    with tracer.span("datasets.extract"):
        codes = extractor.extract_many(dataset.test_images)
    reference = Reference(dataset, codes, np.asarray(dataset.test_labels, dtype=np.int64))
    if build:
        with tracer.span("core.pipeline.build"):
            reference.pipeline = build_pipeline(dataset, extractor=extractor, seed=REFERENCE_SEED)
        with tracer.span("crossbar.prepare"):
            reference.amm.solver.batch_engine.prepare()
    return reference


def ensure_pipeline(reference: Reference) -> Reference:
    """Build the reference pipeline if it is missing (its engine prepares lazily)."""
    if reference.pipeline is None:
        reference.pipeline = build_pipeline(reference.dataset, seed=REFERENCE_SEED)
    return reference


def template_matrix(dataset) -> np.ndarray:
    """The 128x40 template matrix of a corpus (Fig. 2 averaging)."""
    matrix, _labels = templates_to_matrix(
        build_templates(dataset.images, dataset.labels, default_extractor())
    )
    return matrix


def design_setup() -> np.ndarray:
    """The design_sweep set-up: the corpus and its template matrix."""
    return template_matrix(load_default_dataset(seed=REFERENCE_SEED))


# ---------------------------------------------------------------------- #
# bulk_recall
# ---------------------------------------------------------------------- #
def bulk_stream(seed: int, batch: int = BULK_BATCH) -> inputs.RequestStream:
    return inputs.request_stream(seed, inputs.BULK, 1024, batch, 400)


def energy_per_row(model: SpinAmmPowerModel, result) -> List[float]:
    """Modelled energy per recognition (J) of every row of a batch result."""
    return [
        model.power_from_measurement(float(power), events).energy_per_recognition
        for power, events in zip(result.static_power, result.events)
    ]


def bulk_gate(amm: AssociativeMemoryModule, checks) -> List[str]:
    """Batched rows against the direct sparse solve: currents and winners.

    ``checks`` holds ``(op, codes, seed, batched column currents, batched
    winner)`` per checked row.
    """
    mismatches = []
    for op, codes, seed, currents, winner in checks:
        direct = amm.solver.solve(amm.input_dacs.conductances(codes), include_parasitics=True)
        scale = np.max(np.abs(direct.column_currents))
        error = float(np.max(np.abs(currents - direct.column_currents)) / scale)
        wta = amm.wta.convert_batch_seeded(direct.column_currents[None, :], np.array([seed]))
        direct_winner = int(amm.column_labels[wta.winner[0]])
        if not error <= BULK_GATE_RTOL or direct_winner != int(winner):
            mismatches.append(
                f"bulk op {op}: relative current error {error:.3g}, "
                f"winner {int(winner)} vs direct {direct_winner}"
            )
    return mismatches


def bulk_op(amm, model, codes, seeds, labels, tracer, op=None):
    """One bulk_recall op: recall a batch, tally accuracy, model the energy."""
    with tracer.span("bulk.op", op):
        with tracer.span("core.amm.recognise", op):
            result = amm.recognise_batch_seeded(codes, seeds)
        with tracer.span("bulk.tally", op):
            hits = int(np.count_nonzero(result.winner == labels))
        with tracer.span("core.power.energy", op):
            joules = sum(energy_per_row(model, result))
    return result, hits, joules


def bulk_window(reference: Reference, seed: int, seconds: float, batch: int = BULK_BATCH) -> Run:
    """Closed-loop batches for ``seconds`` after the warm-up; gate 8 rows."""
    amm = reference.amm
    model = SpinAmmPowerModel(amm.parameters)
    stream = bulk_stream(seed, batch)
    untraced = NullTracer()
    op_seconds: List[float] = []
    correct = 0
    energy = 0.0
    checks = []
    index = 0
    cpu = None
    start = end = 0.0
    while True:
        if index == BULK_WARMUP_OPS:
            cpu = host.CpuWindow()
            start = time.perf_counter()
        elif index > BULK_WARMUP_OPS and end - start >= seconds:
            break
        codes, seeds = stream.request(index, reference.codes)
        labels = reference.labels[stream.rows_of(index)]
        began = time.perf_counter()
        result, hits, joules = bulk_op(amm, model, codes, seeds, labels, untraced)
        end = time.perf_counter()
        if index >= BULK_WARMUP_OPS:
            op = index - BULK_WARMUP_OPS
            op_seconds.append(end - began)
            correct += hits
            energy += joules
            if op < BULK_GATE_ROWS:
                row = (op * 37) % batch
                checks.append(
                    (op, codes[row], int(seeds[row]), result.column_currents[row], result.winner[row])
                )
        index += 1
    cpu_per_wall = cpu.ratio()
    peak = host.peak_rss_mb()  # before the gate's direct solves
    rows = len(op_seconds) * batch
    mismatches = bulk_gate(amm, checks)
    return Run(
        setup_s=[],
        op_seconds=op_seconds,
        rows=rows,
        window_s=end - start,
        attempted=len(op_seconds),
        failed=len(mismatches),
        mismatches=mismatches,
        peak_rss_mb=peak,
        cpu_per_wall=cpu_per_wall,
        extra={
            "accuracy": correct / rows,
            "energy_per_recognition_pj": energy / rows * 1e12,
            "chunk_size": amm.solver.batch_engine.chunk_size,
        },
    )


def bulk_replay(reference: Reference, seed: int, tracer, seconds: float,
                batch: int = BULK_BATCH) -> dict:
    """Replay bulk ops, each run untraced and then traced, then split into layers.

    Each batch runs once untraced (timed as a whole) and once inside
    spans, back to back, so the ledger and its untraced reference see the
    same inputs under the same host conditions.  After the traced op,
    outside it, the batch goes through the three layer calls the recall
    makes, in its order: DAC conversion, crossbar solve, WTA conversion.
    """
    amm = reference.amm
    engine = amm.solver.batch_engine
    model = SpinAmmPowerModel(amm.parameters)
    stream = bulk_stream(seed, batch)
    untraced, untraced_s = NullTracer(), []
    start = time.perf_counter()
    op = 0
    while op == 0 or time.perf_counter() - start < seconds:
        codes, seeds = stream.request(op, reference.codes)
        labels = reference.labels[stream.rows_of(op)]
        began = time.perf_counter()
        bulk_op(amm, model, codes, seeds, labels, untraced)
        untraced_s.append(time.perf_counter() - began)
        bulk_op(amm, model, codes, seeds, labels, tracer, op)
        with tracer.span("bulk.layers", op):
            with tracer.span("devices.dac", op):
                conductances = amm.input_dacs.conductances(codes)
            with tracer.span("crossbar.solve", op):
                solution = engine.solve_batch(conductances, include_parasitics=amm.include_parasitics)
            with tracer.span("core.wta.convert", op):
                amm.wta.convert_batch_seeded(solution.column_currents, seeds)
        op += 1
    return {"ops": op, "rows": op * batch, "batch": batch, "untraced_op_s": untraced_s}


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
def serve_streams(seed: int):
    return (
        inputs.request_stream(seed, inputs.SERVE_JSON, 8192, JSON_ROWS, 400),
        inputs.request_stream(seed, inputs.SERVE_BINARY, 2048, BINARY_ROWS, 400),
    )


class ServerProcess:
    """The serving process: spawned, probed until ``/healthz`` answers, stopped."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "server.py")],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ports = self._read_ports()
            self.port, self.binary_port = ports["port"], ports["binary_port"]
            with RecognitionClient("127.0.0.1", self.port, timeout=RESULT_TIMEOUT_S) as client:
                client.healthz()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - began

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_ports(self) -> dict:
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as reader:
            line = reader.submit(self.process.stdout.readline)
            try:
                text = line.result(SERVER_START_TIMEOUT_S)
            except concurrent.futures.TimeoutError:
                self.process.kill()
                raise RuntimeError("server did not start in time") from None
        if not text:
            raise RuntimeError(f"server exited with code {self.process.wait()}")
        return json.loads(text)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


@dataclass
class ClassWindow:
    """One request class of a two-class closed loop."""

    op_seconds: List[float] = field(default_factory=list)
    rows: int = 0
    failed: int = 0
    first_error: Optional[BaseException] = None
    #: (request index, served rows) of the gated requests.
    checked: list = field(default_factory=list)


def two_class_window(json_op: Callable, binary_op: Callable, warmup: float, seconds: float,
                     on_start: Optional[Callable] = None):
    """Run one JSON and one binary closed-loop thread; time ``seconds`` after warm-up.

    ``json_op(i)`` / ``binary_op(i)`` perform request ``i`` and return
    ``(rows, served rows or None)``; an exception counts the request as
    failed.  Requests that start inside the window are counted; the window
    closes when the last of them completes.  ``on_start`` is called when
    the window opens and returns a callable that is called when it closes.
    """
    stop = threading.Event()
    window = {"start": float("inf"), "end": float("inf")}
    classes = {"json": ClassWindow(), "binary": ClassWindow()}
    last_done = [0.0]

    def drive(name: str, op: Callable) -> None:
        record = classes[name]
        index = 0
        while not stop.is_set():
            began = time.perf_counter()
            try:
                rows, served = op(index)
                ok = True
            except Exception as error:  # noqa: BLE001 — a failed request is counted
                rows, served, ok = 0, None, False
                record.first_error = record.first_error or error
            done = time.perf_counter()
            if window["start"] <= began < window["end"]:
                record.op_seconds.append(done - began)
                record.rows += rows
                record.failed += 0 if ok else 1
                last_done[0] = max(last_done[0], done)
                if served is not None:
                    record.checked.append((index, served))
            index += 1

    threads = [
        threading.Thread(target=drive, args=("json", json_op), name="perfbench-json"),
        threading.Thread(target=drive, args=("binary", binary_op), name="perfbench-binary"),
    ]
    for thread in threads:
        thread.start()
    try:
        time.sleep(warmup)
        finish = on_start() if on_start else None
        window["start"] = time.perf_counter()
        time.sleep(seconds)
        window["end"] = time.perf_counter()
        closed = finish() if finish else None
    finally:
        stop.set()
        for thread in threads:
            thread.join(RESULT_TIMEOUT_S * 2)
    return classes, max(last_done[0], window["end"]) - window["start"], closed


def serve_gate(amm: AssociativeMemoryModule, reference: Reference, streams, classes) -> List[str]:
    """Served rows against ``recognise_batch_seeded`` on the same codes and seeds."""
    mismatches = []
    for name, stream in zip(("json", "binary"), streams):
        for index, served in classes[name].checked:
            codes, seeds = stream.request(index, reference.codes)
            expected = amm.recognise_batch_seeded(codes, seeds)
            for row, got in enumerate(served):
                want = (
                    int(expected.winner[row]),
                    int(expected.dom_code[row]),
                    bool(expected.accepted[row]),
                    bool(expected.tie[row]),
                )
                have = (int(got["winner"]), int(got["dom_code"]), bool(got["accepted"]), bool(got["tie"]))
                if have != want:
                    mismatches.append(f"{name} request {index} row {row}: served {have}, expected {want}")
                    break
    return mismatches


def serve_window(root: Path, reference: Reference, seed: int, seconds: float,
                 setups: int = 1) -> Run:
    """Spawn the server ``setups`` times (keeping the last), then run the load."""
    setup_s = []
    server = None
    for _ in range(setups):
        if server is not None:
            server.stop()
        server = ServerProcess(root)
        setup_s.append(server.setup_s)
    streams = serve_streams(seed)
    with contextlib.ExitStack() as stack:
        stack.callback(server.stop)
        json_client = stack.enter_context(
            RecognitionClient("127.0.0.1", server.port, timeout=RESULT_TIMEOUT_S)
        )
        binary_client = stack.enter_context(
            BinaryRecognitionClient("127.0.0.1", server.binary_port, timeout=RESULT_TIMEOUT_S)
        )

        def json_op(index):
            codes, seeds = streams[0].request(index, reference.codes)
            results = json_client.recognise_many(codes, seeds)
            if len(results) != JSON_ROWS:
                raise RuntimeError(f"{len(results)} results for {JSON_ROWS} rows")
            return JSON_ROWS, results if index % SERVE_GATE_STRIDE == 0 else None

        def binary_op(index):
            codes, seeds = streams[1].request(index, reference.codes)
            answer = binary_client.recognise_batch(codes, seeds)
            if answer.failed or answer.errors:
                raise RuntimeError(f"{answer.failed} failed rows")
            return BINARY_ROWS, answer.rows() if index % SERVE_GATE_STRIDE == 0 else None

        def on_start():
            own, served = host.CpuWindow(), host.CpuWindow(server.pid)
            return lambda: (own.ratio(), served.ratio())

        classes, window_s, (loadgen_cpu, server_cpu) = two_class_window(
            json_op, binary_op, SERVE_WARMUP_S, seconds, on_start
        )
        stats = json_client.stats()
        peak = host.peak_rss_mb(server.pid)
    mismatches = serve_gate(ensure_pipeline(reference).amm, reference, streams, classes)
    json_class, binary_class = classes["json"], classes["binary"]
    attempted = len(json_class.op_seconds) + len(binary_class.op_seconds)
    rows = json_class.rows + binary_class.rows
    hits = sum(
        int(served["winner"]) == int(reference.labels[stream.rows_of(index)[row]])
        for name, stream in zip(("json", "binary"), streams)
        for index, served_rows in classes[name].checked
        for row, served in enumerate(served_rows)
    )
    checked_rows = sum(len(rows_) for c in classes.values() for _i, rows_ in c.checked)
    return Run(
        setup_s=setup_s,
        op_seconds=json_class.op_seconds,
        rows=rows,
        window_s=window_s,
        attempted=attempted,
        failed=json_class.failed + binary_class.failed + len(mismatches),
        mismatches=mismatches,
        peak_rss_mb=peak,
        cpu_per_wall=loadgen_cpu,
        extra={
            "json_op_seconds": json_class.op_seconds,
            "binary_op_seconds": binary_class.op_seconds,
            "server_cpu_per_wall": server_cpu,
            "accuracy": hits / checked_rows if checked_rows else float("nan"),
            "checked_rows": checked_rows,
            "batch_fill": stats["batches"]["mean_fill"],
            "queue_depth_max": stats["queue_depth"]["max"],
            "server_p50_ms": stats["latency"]["p50_ms"],
            "server_latency_samples": stats["latency"]["samples"],
            "request_errors": [repr(c.first_error) for c in classes.values() if c.first_error],
        },
    )


def serve_replay(service: RecognitionService, reference: Reference, seed: int, tracer,
                 seconds: float, warmup: float = 0.3) -> dict:
    """The two-class loop in process: protocol, wire and service calls in spans.

    JSON requests go through body decode and parse, ``submit_many``, the
    wait for their futures and the response encode; binary requests
    through RECOGNISE frame encode and decode, the same service calls and
    ROWS/DONE frame encode and decode.  Client-side JSON bodies are built
    before the loop: they are the HTTP client's work, not a layer's.
    """
    json_stream, binary_stream = serve_streams(seed)
    bodies = []
    for index in range(256):
        codes, seeds = json_stream.request(index, reference.codes)
        bodies.append(encode_json({"codes": codes.tolist(), "seeds": seeds.tolist()}))
    resolve = {"json": [], "binary": []}

    def json_op(index):
        with tracer.span("serving.op.json", index):
            with tracer.span("serving.protocol.json_decode", index):
                parsed = parse_recognise(decode_json_body(bodies[index % len(bodies)]))
            began = time.perf_counter()
            with tracer.span("serving.service.submit", index):
                futures = service.submit_many(parsed.codes, seeds=parsed.seeds)
            with tracer.span("serving.service.resolve", index):
                results = [future.result(RESULT_TIMEOUT_S) for future in futures]
            resolve["json"].append(time.perf_counter() - began)
            with tracer.span("serving.protocol.json_encode", index):
                encode_json({"count": len(results), "results": [result_to_json(r) for r in results]})
        return JSON_ROWS, None

    def binary_op(index):
        codes, seeds = binary_stream.request(index, reference.codes)
        with tracer.span("serving.op.binary", index):
            with tracer.span("backends.wire.encode", index):
                frame = wire.encode_frame(
                    wire.RECOGNISE, {}, {"codes": codes.astype(np.uint8), "seeds": seeds}
                )
            header_bytes, payload = bytes(frame[1]), b"".join(bytes(part) for part in frame[2:])
            with tracer.span("backends.wire.decode", index):
                wire.unpack_prefix(frame[0])
                header = wire.decode_header(header_bytes)
                arrays = wire.decode_arrays(header, payload)
                request_codes = arrays["codes"].astype(np.int64)
                request_seeds = [int(seed) for seed in arrays["seeds"]]
            began = time.perf_counter()
            with tracer.span("serving.service.submit", index):
                futures = service.submit_many(request_codes, seeds=request_seeds)
            with tracer.span("serving.service.resolve", index):
                results = [future.result(RESULT_TIMEOUT_S) for future in futures]
            resolve["binary"].append(time.perf_counter() - began)
            with tracer.span("backends.wire.encode", index):
                rows = wire.encode_frame(wire.ROWS, {"id": index, "errors": []}, {
                    "index": np.arange(len(results), dtype=np.int32),
                    "winner": np.asarray([r.winner for r in results], dtype=np.int32),
                    "winner_column": np.asarray([r.winner_column for r in results], dtype=np.int32),
                    "dom_code": np.asarray([r.dom_code for r in results], dtype=np.int32),
                    "accepted": np.asarray([r.accepted for r in results], dtype=np.uint8),
                    "tie": np.asarray([r.tie for r in results], dtype=np.uint8),
                    "static_power_w": np.asarray([r.static_power for r in results], dtype=np.float64),
                })
                wire.encode_frame(wire.DONE, {"id": index, "count": len(results), "ok": len(results)})
            header_bytes, payload = bytes(rows[1]), b"".join(bytes(part) for part in rows[2:])
            with tracer.span("backends.wire.decode", index):
                wire.unpack_prefix(rows[0])
                wire.decode_arrays(wire.decode_header(header_bytes), payload)
        return BINARY_ROWS, None

    classes, window_s, _closed = two_class_window(json_op, binary_op, warmup, seconds)
    for record in classes.values():
        if record.first_error:
            raise RuntimeError("in-process replay failed") from record.first_error
    return {
        "window_s": window_s,
        "json_rows": classes["json"].rows,
        "binary_rows": classes["binary"].rows,
        "rows": classes["json"].rows + classes["binary"].rows,
        "json_resolve_s": resolve["json"],
        "binary_resolve_s": resolve["binary"],
    }


# ---------------------------------------------------------------------- #
# design_sweep
# ---------------------------------------------------------------------- #
def point_parameters(kind: str, value: float):
    parameters = default_parameters()
    if kind == "r_min":
        return parameters.with_resistance_range(r_min_ohm=value, r_max_ohm=value * RESISTANCE_RATIO)
    return parameters.with_delta_v(value)


def design_point(templates: np.ndarray, kind: str, value: float, seed: int) -> MarginPoint:
    """One Fig. 9 point through the public sweep function."""
    if kind == "r_min":
        points = conductance_range_sweep(
            templates, [value], RESISTANCE_RATIO, default_parameters(), num_inputs=NUM_INPUTS, seed=seed
        )
    else:
        points = delta_v_sweep(
            templates, [value], default_parameters(), num_inputs=NUM_INPUTS, seed=seed
        )
    return points[0]


def design_gate(point: MarginPoint) -> Optional[str]:
    values = (point.mean_margin, point.min_margin, point.mean_margin_ideal)
    if all(np.isfinite(values)) and point.min_margin <= point.mean_margin <= 1.0:
        return None
    return f"design point {point.parameter:g}: {point}"


def design_window(templates: np.ndarray, seed: int, seconds: float,
                  points=DESIGN_POINTS) -> Run:
    """Whole passes over the sweep points until ``seconds`` have passed."""
    kind, value = points[0]
    design_point(templates, kind, value, seed)  # warm-up
    cpu = host.CpuWindow()
    start = time.perf_counter()
    op_seconds: List[float] = []
    mismatches: List[str] = []
    positive = 0
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for kind, value in points:
            began = time.perf_counter()
            point = design_point(templates, kind, value, seed + passes)
            op_seconds.append(time.perf_counter() - began)
            positive += point.mean_margin > 0
            problem = design_gate(point)
            if problem:
                mismatches.append(problem)
        passes += 1
    window_s = time.perf_counter() - start
    return Run(
        setup_s=[],
        op_seconds=op_seconds,
        rows=len(op_seconds),
        window_s=window_s,
        attempted=len(op_seconds),
        failed=len(mismatches),
        mismatches=mismatches,
        peak_rss_mb=host.peak_rss_mb(),
        cpu_per_wall=cpu.ratio(),
        extra={"passes": passes, "positive_margin_share": positive / len(op_seconds)},
    )


def design_replay(templates: np.ndarray, seed: int, tracer, seconds: float,
                  points=DESIGN_POINTS) -> dict:
    """Replay whole passes of sweep points through build, factorise and margins.

    Passes run until ``seconds`` have passed (at least one).  After each
    point, outside its op span, one direct sparse solve of the point's
    network (the inner solve of DAC calibration) is timed.
    """
    max_code = 2 ** default_parameters().input_bits - 1
    start = time.perf_counter()
    op = 0
    while op == 0 or op % len(points) or time.perf_counter() - start < seconds:
        kind, value = points[op % len(points)]
        pass_seed = seed + op // len(points)
        evaluation, true_columns = inputs.evaluation_inputs(templates, NUM_INPUTS, max_code, pass_seed)
        parameters = point_parameters(kind, value)
        with tracer.span("design.op", op):
            with tracer.span("core.amm.build", op):
                amm = AssociativeMemoryModule.from_templates(
                    templates, parameters=parameters, include_parasitics=True,
                    seed=np.random.default_rng(pass_seed),
                )
            with tracer.span("crossbar.factorise", op):
                amm.solver.batch_engine.prepare(autotune_chunk=False)
            with tracer.span("analysis.margins", op):
                detection_margins(amm, evaluation, true_columns, include_parasitics=True)
                detection_margins(amm, evaluation, true_columns, include_parasitics=False)
        with tracer.span("crossbar.direct_solve", op):
            amm.solver.solve(amm.input_dacs.conductances(evaluation[0]), include_parasitics=True)
        op += 1
    return {"ops": op}
