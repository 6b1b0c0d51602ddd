#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ingest|fleet-scan \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program (perfbench/hpm_bench.cc)
is built from source into perfbench/build/ against ../src, then run with
its work files under perfbench/work/. The last stdout line is the JSON result,
printed only when every correctness check passed; any failure exits
non-zero without it. perfbench/NOTES.md describes the workloads.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(HERE, "build")
WORK_DIR = os.path.join(HERE, "work")
BINARY = os.path.join(BUILD_DIR, "hpm_bench")
WORKLOADS = ("ingest", "fleet-scan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark program; output goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (../src) not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "hpm_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
