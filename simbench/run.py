#!/usr/bin/env python3
"""Builds and runs the simulator host-cost benchmark (see README.md).

    python3 simbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds simbench/ (which compiles the
repository's libraries from src/) into .bench_build/simbench, runs one
workload, and prints the result as one JSON object on the last line of
standard output. Build output and diagnostics go to standard error. The
exit code is non-zero when the build fails, when any simulated run fails
its checks, or when the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "simbench")
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD, "simbench")

# A run must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=-1,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < -1 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    result_path = os.path.join(BUILD, "result-%d.json" % os.getpid())
    command = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
               "--out=" + result_path]
    if args.trace:
        seed = "pinned" if args.seed < 0 else str(args.seed)
        command.append("--spans=" + os.path.join(
            BUILD, "spans-%s-%s.json" % (args.workload, seed)))
    try:
        code = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("run.py: benchmark did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if not os.path.exists(result_path):
        print("run.py: benchmark exited %d without a result" % code, file=sys.stderr)
        return code or 1
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
