#!/usr/bin/env python3
"""The benchmark's own test: one seed gives identical deterministic metrics.

    python3 perfbench/check_determinism.py [--workload W ...] [--seed N]

Runs the benchmark twice per workload and mode with the same seed and
asserts that the metrics which depend only on the generated inputs are
bit-identical: predict_err and pattern_share (end-to-end run), and
mining.swaps, wal.appended and the tpt.* counts (per-layer run). Timings
are expected to differ and are not compared. Exits non-zero on any
difference or failed run.
"""

import argparse
import sys

import harness

DETERMINISTIC = {
    0: ["predict_err", "pattern_share"],
    1: ["mining.swaps", "wal.appended", "tpt.nodes_visited",
        "tpt.entries_tested", "tpt.block_scans"],
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=("ingest", "fleet-scan"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()

    failures = 0
    for workload in args.workload or ["ingest", "fleet-scan"]:
        for trace, names in DETERMINISTIC.items():
            first = harness.run(workload, args.seed, trace,
                                args.seconds)["metrics"]
            second = harness.run(workload, args.seed, trace,
                                 args.seconds)["metrics"]
            for name in names:
                a, b = first[name]["value"], second[name]["value"]
                status = "ok" if a == b else "DIFFERS"
                failures += a != b
                print("%-12s %-20s %r %r %s" % (workload, name, a, b, status))
    if failures:
        sys.exit("FAIL: %d deterministic metrics differ" % failures)
    print("ok: deterministic metrics identical across runs of one seed")


if __name__ == "__main__":
    main()
