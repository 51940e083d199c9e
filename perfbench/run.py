"""The benchmark's one command.

    python3 perfbench/run.py --workload bulk_recall --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of one workload; ``--trace 1`` prints the per-layer ledger.  Both
run the workload's correctness gates, print host facts and human-readable
figures with their sample counts, and end with one JSON line.  The exit
code is 0 only when no operation failed and every gate passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk_recall", "serve_mixed", "design_sweep")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Tail percentiles printed with their sample counts next to the median;
#: only the median is an end-to-end metric (see README, "Steadiness").
TAIL_QUANTILES = (75, 90)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    arguments = parser.parse_args(argv)
    if arguments.seed < 0 or arguments.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return arguments


def _timed_setups(function, repeats):
    """Run ``function`` ``repeats`` times; return the times and the last result."""
    times, result = [], None
    for _ in range(repeats):
        result = None  # release the previous set-up before building the next
        start = time.perf_counter()
        result = function()
        times.append(time.perf_counter() - start)
    return times, result


def untraced(arguments):
    """One untraced run; returns ``(run, end-to-end metrics)``."""
    from perfbench import workloads
    from perfbench.ledger import percentile

    if arguments.workload == "bulk_recall":
        setups, reference = _timed_setups(workloads.load_reference, SETUP_REPEATS)
        run = workloads.bulk_window(reference, arguments.seed, arguments.seconds)
        run.setup_s = setups
    elif arguments.workload == "serve_mixed":
        reference = workloads.load_reference(build=False)
        run = workloads.serve_window(
            ROOT, reference, arguments.seed, arguments.seconds, setups=SETUP_REPEATS
        )
    else:
        setups, templates = _timed_setups(workloads.design_setup, SETUP_REPEATS)
        run = workloads.design_window(templates, arguments.seed, arguments.seconds)
        run.setup_s = setups
    latencies_ms = [value * 1e3 for value in run.op_seconds]
    for q in TAIL_QUANTILES:
        print(f"latency_p{q}_ms {percentile(latencies_ms, q).describe('ms')}")
    median = percentile(latencies_ms, 50)
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s", f"median of {len(run.setup_s)} set-ups"),
        "throughput_per_s": (
            run.rows / run.window_s, "1/s", f"{run.rows} over {run.window_s:.3f} s"
        ),
    }
    metrics["latency_p50_ms"] = (
        median.value, "ms", f"n={median.samples}, {median.beyond} beyond"
    )
    metrics["ok_share"] = (
        1.0 - run.failed / run.attempted, "share", f"{run.failed} failed of {run.attempted}"
    )
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB", "VmHWM of the working process")
    return run, metrics


def _print_run_details(workload, run):
    from perfbench.ledger import percentile

    extra = dict(run.extra)
    print(f"failed_share {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted} ops)")
    print(f"host.cpu_per_wall {run.cpu_per_wall:.4f} (this process, timed window)")
    if workload == "serve_mixed":
        for name in ("json", "binary"):
            samples = [value * 1e3 for value in extra.pop(f"{name}_op_seconds")]
            for q in (50, *TAIL_QUANTILES):
                print(f"{name}_p{q}_ms {percentile(samples, q).describe('ms')}")
    for key, value in extra.items():
        print(f"{key} {value}")
    for line in run.mismatches:
        print(f"MISMATCH {line}")


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import host
    from perfbench.ledger import check_metric_name

    print("host " + json.dumps(host.host_facts(ROOT, arguments.workload, arguments.seed)))
    if arguments.trace:
        from perfbench import traced

        run, metrics = traced.traced_run(ROOT, arguments)
    else:
        run, metrics = untraced(arguments)
    _print_run_details(arguments.workload, run)
    for name, (value, unit, detail) in metrics.items():
        check_metric_name(name)
        print(f"{name} {value:.6g} {unit} ({detail})")
    gates_ok = not run.mismatches
    print(
        json.dumps(
            {
                "correct": gates_ok,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, _d) in metrics.items()
                },
            }
        )
    )
    return 0 if gates_ok and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
