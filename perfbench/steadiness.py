#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workload cli-sql --seeds 1-10 [--sets 2]

Runs perfbench/run.py once per seed (per set), then prints for every
end-to-end metric the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json. With
--sets 2 the seeds run twice and the second median is compared with the
first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        runs = [run_once(args.workload, seed, spec["run_seconds"]) for seed in args.seeds]
        sets.append({k: [r[k] for r in runs] for k in bounds})
        print(f"set {s + 1}: " + json.dumps(sets[-1]), flush=True)
    print(f"{'metric':<16} {'set':>3} {'median':>12} {'spread':>8} {'bound/3':>8} {'vs set 1':>9}")
    for name, bound in bounds.items():
        first = None
        for s, values in enumerate(sets):
            med, sp = spread(values[name])
            first = first or med
            print(f"{name:<16} {s + 1:>3} {med:>12.4f} {sp:>8.4f} {bound / 3:>8.4f} {med / first - 1:>+9.4f}")


if __name__ == "__main__":
    main()
