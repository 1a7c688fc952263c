#!/usr/bin/env python3
"""Serving benchmark entry point.

Usage (from the root of a checkout):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds serve_bench (servebench/CMakeLists.txt, which compiles the checkout's
src/) into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
runs the benchmark's own statistics test, then runs serve_bench and repeats
its JSON result as the last line of standard output. Any build, test or
serve_bench failure exits nonzero without a result line. With --trace 1
the span log is written to <build dir>/spans/.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # A run must end well inside 180 s.
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "servebench")


def run(cmd, timeout):
    """Runs cmd with its output sent to stderr; kills it on timeout."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", BENCH_DIR, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return False
    return run(["cmake", "--build", out, "-j", "3", "--target",
                "serve_bench", "bench_stats_test"], BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        if not build(out):
            print("servebench: build failed", file=sys.stderr)
            return 1
        if run([os.path.join(out, "bench_stats_test")], 60) != 0:
            print("servebench: statistics self-test failed", file=sys.stderr)
            return 1
        cmd = [os.path.join(out, "serve_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.trace == "1":
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--span-out", os.path.join(
                spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("servebench: %s" % err, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("servebench: serve_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("servebench: serve_bench printed no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print("servebench: malformed or incorrect result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
