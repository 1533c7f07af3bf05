#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 harvestbench/spread.py --workload harvest_inproc --seeds 1-10

Runs the benchmark once per seed (untraced, for run_seconds from
BENCHMARK.json) and prints, for each end-to-end metric, the median and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, beside the metric's bound. A benchmark is
steady when every spread except setup_s stays well inside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = p.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        cmd = BENCH["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        summary = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {summary}", flush=True)
    for metric in BENCH["end_to_end"]:
        v = values[metric["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(
            f"{metric['name']:<24} median {med:<14.6g} spread {spread:7.4f} "
            f"bound {metric['bound']:.3f} {flag}"
        )


if __name__ == "__main__":
    main()
