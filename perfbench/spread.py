#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload fleet-scan --seeds 1-10 \
        [--trace 0] [--seconds 20] [--out runs.jsonl] [--baseline old.jsonl]

For every metric it prints the median, the quartiles and the spread
(third minus first quartile, as a share of the median, with quartiles
from statistics.quantiles(values, n=4)) next to the bound BENCHMARK.json
gives it. The same rule applies to every end-to-end metric, setup_s
included: "steady" means a spread below a third of the bound, "within"
a spread at most the bound. With --baseline (an earlier --out file of the
same workload), it also prints how far each median moved from that set's
median, in the metric's worse direction. Each run's JSON result is
appended to --out.
"""

import argparse
import json
import statistics

import harness


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def medians(path, workload):
    values = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["workload"] != workload:
                continue
            for name, metric in row["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    spec = harness.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    baseline = medians(args.baseline, args.workload) if args.baseline else {}

    values = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(args.seeds):
        result = harness.run(args.workload, seed, args.trace, seconds)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print("%-24s %14s %14s %14s %8s %6s %8s %9s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict",
           "vs base"))
    for m in metrics:
        vals = values[m["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = m.get("bound")
        if bound is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict = "OVER"
        moved = "-"
        base = baseline.get(m["name"])
        if base:
            change = statistics.median(vals) / base - 1
            if m["better"] == "higher":
                change = -change
            moved = "%+.4f" % change
        print("%-24s %14.4f %14.4f %14.4f %8.4f %6s %8s %9s" %
              (m["name"], median, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, verdict, moved))


if __name__ == "__main__":
    main()
