#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--update-pins] [--workload NAME ...]

For each workload it checks that
  * the pinned seed reproduces the sim_digest pinned in perfbench/pins.json,
    with no failed operation;
  * the traced run of that seed produces the same sim_digest;
  * a held-out seed runs correctly and yields a different digest, so the
    seed really reaches the simulator's inputs;
and, for sweep-mixed, that alloc_words_per_event agrees within 1% between
one and two domains (the cross-domain allocation count is exact).

--update-pins rewrites pins.json from the pinned seed's untraced run; do it
only when a change is meant to alter simulated outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
PIN_SEED = 1
HELD_OUT_SEED = 2
WORKLOADS = ["fig2-n512", "sweep-mixed", "load-curve", "conform-campaign"]


def run(workload, seed, trace, seconds=1, jobs=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    summary = next(l for l in lines if "sim_digest" in l)
    return summary, lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--update-pins", action="store_true")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS
    with open(PINS) as f:
        pins = json.load(f)
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in workloads:
        summary, result = run(w, PIN_SEED, 0)
        if args.update_pins:
            pins.setdefault(w, {})[str(PIN_SEED)] = summary["sim_digest"]
            with open(PINS, "w") as f:
                json.dump(pins, f, indent=2, sort_keys=True)
                f.write("\n")
            summary, result = run(w, PIN_SEED, 0)
        digest = summary["sim_digest"]
        check(result["correct"] and result["failed"] == 0 and summary["pinned"] is True,
              "%s seed %d matches its pin %s" % (w, PIN_SEED, digest[:16]))
        traced, tresult = run(w, PIN_SEED, 1)
        check(tresult["correct"] and traced["sim_digest"] == digest,
              "%s traced run reproduces the untraced sim_digest" % w)
        held, hresult = run(w, HELD_OUT_SEED, 0)
        check(hresult["correct"] and hresult["failed"] == 0 and held["sim_digest"] != digest,
              "%s held-out seed %d runs correctly with its own digest" % (w, HELD_OUT_SEED))

    if "sweep-mixed" in workloads:
        words = []
        for jobs in (1, 2):
            _, result = run("sweep-mixed", PIN_SEED, 0, jobs=jobs)
            words.append(result["metrics"]["alloc_words_per_event"]["value"])
        check(abs(words[1] - words[0]) <= 0.01 * words[0],
              "sweep-mixed alloc_words_per_event at jobs 1 and 2 agree within 1%% (%.2f, %.2f)"
              % tuple(words))

    if problems:
        sys.exit("%d check(s) failed" % len(problems))
    print("all checks passed")


if __name__ == "__main__":
    main()
