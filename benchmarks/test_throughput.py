"""Recall-throughput benchmark: per-sample loop versus batched engine.

Times associative recall of the ATT-like test corpus through the
reference 128x40 pipeline two ways:

* the legacy per-sample path (``AssociativeMemoryModule.recognise`` in a
  loop: one sparse-MNA assembly + factorisation + SAR conversion per
  image), and
* the batched engine (``recognise_batch``: one factorisation of the
  static network amortised over the corpus, per-sample Woodbury
  corrections by batched Chebyshev iteration and a vectorised SAR
  winner-take-all), swept over batch sizes.

Each batched point is the best of several passes over the corpus, and
the benchmark records the engine's per-row Chebyshev step counts at the
reference drive and at ΔV = 2 mV, the lowest Fig. 9 supply.

It separately times ``recognise_batch_seeded``, the per-request-seeded
path that serving and offline bulk recall run, in µs per row at a few
batch sizes.

It also times the engine's one-time set-up, the build of its Woodbury
operators, on the reference 128x40 array and on a wide 40x128 one, and
the cost of adopting cached operators for an identical network.
The measured trajectory (images/second, speedup, operator build time) is
written to ``BENCH_throughput.json`` at the repository root, next to the
host it was measured on (core count, BLAS build and thread count), so
the headline can be tracked across commits.  The benchmark also re-asserts
the engine contract on the timed inputs: identical winners, DOM codes
and tie flags between the two paths.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.core.amm import AssociativeMemoryModule
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchedCrossbarEngine, _clear_operator_cache
from repro.crossbar.programming import TemplateProgrammer

#: Where the throughput trajectory is persisted.
OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Images timed through the (slow) per-sample loop.
PER_SAMPLE_IMAGES = 24

#: Batch sizes swept through the batched engine, and its passes over the
#: corpus per size (the best pass is kept).
BATCH_SIZES = (16, 64, 256, None)
BATCHED_PASSES = 7

#: The PR's headline requirement: batched recall at least this many times
#: faster than the per-sample loop.
REQUIRED_SPEEDUP = 5.0

#: Batch sizes of the seeded-recall timing, and its passes over the corpus
#: per size (the best pass is kept).
SEEDED_BATCH_SIZES = (4, 64, 256)
SEEDED_PASSES = 7

#: Fresh engines whose operator build is timed per array (median and best).
BUILD_REPEATS = 9

#: A wide array (columns ≫ rows) programmed with the reference parameters.
WIDE_ARRAY = (40, 128)


def operator_build_ms(crossbar, delta_v, termination_resistance) -> dict:
    """Wall time (ms) of a fresh engine's ``prepare()``: a build, and a hit.

    The operator cache is emptied before every timed build, so each one
    runs the Schur sweep; each hit is a fresh engine adopting the
    operators the build before it cached (assembly and key only).
    """

    def prepare_ms():
        engine = BatchedCrossbarEngine(crossbar, delta_v, termination_resistance)
        start = time.perf_counter()
        engine.prepare()
        return (time.perf_counter() - start) * 1e3

    builds, hits = [], []
    for _ in range(BUILD_REPEATS):
        _clear_operator_cache()
        builds.append(prepare_ms())
        hits.append(prepare_ms())
    return {
        "rows": int(crossbar.rows),
        "columns": int(crossbar.columns),
        "repeats": BUILD_REPEATS,
        "median_ms": statistics.median(builds),
        "best_ms": min(builds),
        "hit_median_ms": statistics.median(hits),
    }


def seeded_us_per_row(amm, codes) -> list:
    """Best-of-``SEEDED_PASSES`` µs per row of ``recognise_batch_seeded``."""
    rng = np.random.default_rng(2013)
    seeds = rng.integers(0, 2**63 - 1, size=len(codes), dtype=np.int64)
    points = []
    for batch_size in SEEDED_BATCH_SIZES:
        passes = []
        for _ in range(SEEDED_PASSES):
            start = time.perf_counter()
            for begin in range(0, len(codes), batch_size):
                stop = begin + batch_size
                amm.recognise_batch_seeded(codes[begin:stop], seeds[begin:stop])
            passes.append((time.perf_counter() - start) * 1e6 / len(codes))
        points.append(
            {
                "batch_size": batch_size,
                "rows": len(codes),
                "passes": SEEDED_PASSES,
                "best_us_per_row": min(passes),
                "median_us_per_row": statistics.median(passes),
            }
        )
    return points


def step_counts(amm, codes) -> dict:
    """Spread of the per-row Chebyshev step counts of ``codes`` through ``amm``."""
    steps = amm.solver.batch_engine.step_counts(amm.input_dacs.conductances(codes))
    return {
        "delta_v": amm.parameters.delta_v,
        "rows": len(steps),
        "min": int(steps.min()),
        "median": float(np.median(steps)),
        "max": int(steps.max()),
    }


def wide_crossbar(parameters, seed: int = 0) -> ResistiveCrossbar:
    """A random-template 40x128 array with the reference device and wires."""
    rng = np.random.default_rng(seed)
    programmer = TemplateProgrammer(
        memristor=parameters.memristor_model(seed=rng), bits=parameters.template_bits
    )
    codes = rng.integers(0, 2**parameters.template_bits, size=WIDE_ARRAY)
    return ResistiveCrossbar.from_programmed(
        programmer.program(codes), parasitics=parameters.wire_parasitics()
    )


@pytest.fixture(scope="module")
def recall_codes(full_pipeline, full_dataset):
    """Pre-extracted feature codes of the whole test corpus."""
    return full_pipeline.extractor.extract_many(full_dataset.test_images)


def test_batched_recall_throughput(
    full_pipeline, full_dataset, reference_templates, recall_codes, write_result, host_facts
):
    amm = full_pipeline.amm
    corpus = recall_codes.shape[0]

    # Per-sample baseline: the legacy loop, one sparse solve per image.
    subset = recall_codes[:PER_SAMPLE_IMAGES]
    start = time.perf_counter()
    loop_results = [amm.recognise(codes) for codes in subset]
    per_sample_seconds = time.perf_counter() - start
    per_sample_ips = PER_SAMPLE_IMAGES / per_sample_seconds

    # The engine's one-time set-up is its operator build, which the module
    # ran while calibrating its DACs; time it on fresh engines, for the
    # pipeline's array and a wide one.
    engine = amm.solver.batch_engine
    builds = [
        operator_build_ms(engine.crossbar, engine.delta_v, engine.termination_resistance),
        operator_build_ms(
            wide_crossbar(amm.parameters), engine.delta_v, engine.termination_resistance
        ),
    ]
    warmup = amm.recognise_batch(subset)

    # The engine must agree with the loop on every discrete output.
    for index, scalar in enumerate(loop_results):
        assert int(warmup.winner_column[index]) == scalar.winner_column
        assert int(warmup.dom_code[index]) == scalar.dom_code
        assert bool(warmup.tie[index]) == scalar.tie

    trajectory = []
    for batch_size in BATCH_SIZES:
        step = corpus if batch_size is None else batch_size
        passes = []
        for _ in range(BATCHED_PASSES):
            start = time.perf_counter()
            for begin in range(0, corpus, step):
                amm.recognise_batch(recall_codes[begin : begin + step])
            passes.append(time.perf_counter() - start)
        elapsed = min(passes)
        trajectory.append(
            {
                "batch_size": step,
                "images": corpus,
                "passes": BATCHED_PASSES,
                "seconds": elapsed,
                "median_seconds": statistics.median(passes),
                "images_per_second": corpus / elapsed,
                "speedup_vs_per_sample": (corpus / elapsed) / per_sample_ips,
            }
        )

    best = max(trajectory, key=lambda point: point["images_per_second"])
    seeded = seeded_us_per_row(amm, recall_codes)
    low_supply = AssociativeMemoryModule.from_templates(
        reference_templates[0],
        parameters=amm.parameters.with_delta_v(2e-3),
        include_parasitics=True,
        seed=2013,
    )
    chebyshev = [step_counts(amm, recall_codes), step_counts(low_supply, recall_codes)]
    payload = {
        "host": host_facts,
        "dataset": {
            "classes": int(full_dataset.num_classes),
            "test_images": int(corpus),
        },
        "array": {
            "rows": int(amm.crossbar.rows),
            "columns": int(amm.crossbar.columns),
        },
        "per_sample": {
            "images": PER_SAMPLE_IMAGES,
            "seconds": per_sample_seconds,
            "images_per_second": per_sample_ips,
        },
        "operator_build": builds,
        "batched": trajectory,
        "best": best,
        "seeded": seeded,
        "chebyshev_steps": chebyshev,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"per-sample loop: {per_sample_ips:8.1f} images/s "
        f"({PER_SAMPLE_IMAGES} images)",
    ]
    for build in builds:
        lines.append(
            f"operator build {build['rows']}x{build['columns']}: "
            f"{build['median_ms']:8.1f} ms median, {build['best_ms']:.1f} ms best (one-time), "
            f"{build['hit_median_ms']:.1f} ms cached"
        )
    for point in trajectory:
        lines.append(
            f"batch={point['batch_size']:<4d}     {point['images_per_second']:8.1f} "
            f"images/s ({point['speedup_vs_per_sample']:.1f}x) best of {point['passes']}"
        )
    for point in seeded:
        lines.append(
            f"seeded batch={point['batch_size']:<4d} {point['best_us_per_row']:8.1f} "
            f"us/row best of {point['passes']}"
        )
    for counts in chebyshev:
        lines.append(
            f"chebyshev steps at dV={counts['delta_v'] * 1e3:g} mV: "
            f"{counts['min']}-{counts['max']} per row (median {counts['median']:g})"
        )
    write_result("throughput", "\n".join(lines))

    assert best["speedup_vs_per_sample"] >= REQUIRED_SPEEDUP, (
        f"batched recall reached only {best['speedup_vs_per_sample']:.1f}x "
        f"of the per-sample loop (required {REQUIRED_SPEEDUP}x)"
    )


def test_batched_evaluation_matches_per_sample_accuracy(full_pipeline, full_dataset):
    """The batched evaluate path reproduces per-sample accuracy statistics."""
    batched = full_pipeline.evaluate(full_dataset, limit=60, batch_size=None)
    per_sample = full_pipeline.evaluate(full_dataset, limit=60, batch_size=1)
    assert batched.accuracy == per_sample.accuracy
    assert batched.acceptance_rate == per_sample.acceptance_rate
    assert batched.tie_rate == per_sample.tie_rate
    assert batched.count == per_sample.count
