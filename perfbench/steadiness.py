"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads bulk_recall,design_sweep \\
        --seeds 1-10 [--out perfbench/STEADINESS.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, untraced,
for its ``run_seconds``.  For every end-to-end metric it prints the
median and the quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound.  With ``--out`` the per-run values and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.ledger import quartile_spread  # noqa: E402

#: Upper bound on one run, set-up included.
RUN_TIMEOUT_S = 900


def parse_seeds(text: str):
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(command, workload, seed, seconds):
    began = time.perf_counter()
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    return json.loads(lines[-1]), host, time.perf_counter() - began


def summarise(values, bound):
    median = statistics.median(values)
    spread = quartile_spread(values) if median else 0.0
    return {"median": median, "spread": spread, "bound": bound, "within_third": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    arguments = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    report = {"run_seconds": benchmark["run_seconds"], "workloads": {}}
    for workload in arguments.workloads.split(","):
        runs = []
        for seed in parse_seeds(arguments.seeds):
            result, host, elapsed = run_once(
                benchmark["command"], workload, seed, benchmark["run_seconds"]
            )
            values = {name: entry["value"] for name, entry in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                         "attempted": result["attempted"], "elapsed_s": elapsed, "metrics": values})
            report.setdefault("host", host)
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
                  flush=True)
        summary = {
            name: summarise([run["metrics"][name] for run in runs], bound)
            for name, bound in bounds.items()
        }
        for name, entry in summary.items():
            print(f"{workload} {name}: median {entry['median']:.5g} spread {entry['spread']:.4f} "
                  f"bound {entry['bound']} {'ok' if entry['within_third'] else 'WIDE'}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
