#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), against the bound in BENCHMARK.json.
The ungated end-to-end metrics of the detailed report are listed too,
without a bound.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workload fbdb_exact --seeds 1-10

A metric is steady when its spread is below a third of its bound; setup_s
only needs its median to hold between two such sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace",
                                  str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            sys.exit(1)
        print("seed %d: attempted %d failed %d" %
              (seed, result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        report = json.loads(lines[-2]) if len(lines) > 1 else {}
        for name, metric in report.get("e2e_ungated", {}).items():
            if metric["value"] is not None:
                values.setdefault(name, []).append(metric["value"])

    steady = True
    print("%-22s %14s %9s %7s  %s" % ("metric", "median", "iqr/med", "bound",
                                       "values by seed"))
    for name, vals in sorted(values.items()):
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- above bound/3"
            steady = False
        print("%-22s %14.6g %9.4f %7s  %s%s" %
              (name, median, spread, "-" if bound is None else bound,
               " ".join("%.4g" % v for v in vals), flag))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
