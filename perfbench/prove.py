#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/prove.py --workloads screen,certify --seeds 1-10 \
        --trace 0 [--out summary.json]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, plus each run's result digest.  ``--out`` also writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="screen,certify,simulate,survey")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            report, result = run_once(workload, seed, RUN_SECONDS, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "digest": report["digest"],
                         "passes": report.get("passes", report.get("rounds")),
                         "repeat_speedup": report.get("repeat_speedup"),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        names = runs[0]["metrics"].keys()
        summary[workload] = {
            "metrics": {
                name: summarise([r["metrics"][name] for r in runs]) for name in names
            },
            "runs": runs,
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:9s} {name:48s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
