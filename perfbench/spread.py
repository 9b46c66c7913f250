#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  Runs are sequential; each is a full
perfbench/run.py invocation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, json.dumps(result)))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print("%-24s median %-14.6g spread %.4f  bound %.2f  %s" % (
            name, med, spread, bounds[name],
            "ok" if spread <= bounds[name] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
