#!/usr/bin/env python3
"""Run-to-run spread of the serving benchmark's end-to-end metrics.

Usage (from the root of a checkout):

    python3 servebench/spread.py --workload <name> --seeds 1 2 3 [--seconds 10]

Runs servebench/run.py once per seed with tracing off and prints, for
every metric, the median and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=False)
        if proc.returncode != 0:
            print("seed %d failed with exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("%-18s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else float("nan")
        print("%-18s %14.6g %9.4f %7s" % (name, median, spread,
                                          bounds.get(name, "-")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
