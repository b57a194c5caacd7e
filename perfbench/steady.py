#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. For each workload (default: all in
BENCHMARK.json) it runs perfbench/run.py --runs times, each with another
seed, and prints per metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. A spread above a third of
the bound is marked "wide", above the bound "TOO WIDE" (setup_s is exempt
from the spread rule but still listed).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        values = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            walls.append(time.time() - t0)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print("%s seed %d: not correct" % (w, seed))
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
        print("%s: %d runs, wall per run median %.1f s, max %.1f s" % (
            w, len(walls), statistics.median(walls), max(walls)))
        for name in sorted(values):
            vals = values[name]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(name)  # None: a metric BENCHMARK.json does not list
            mark = "not gated"
            if bound is not None:
                mark = "TOO WIDE" if spread > bound else "wide" if spread > bound / 3 else "ok"
            print("  %-20s median %12.5g  spread %6.3f  bound %-4s  %s" % (
                name, med, spread, bound if bound is not None else "-", mark))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
