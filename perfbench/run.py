#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]

Run from the root of a bftsim checkout.  The first call builds
perfbench/bench.exe (and the libraries it links) into .bench_build; later
calls reuse that build.  The benchmark's informational JSON lines are passed
through, and the last line of standard output is the result object.  Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
WORKLOADS = ["fig2-n512", "sweep-mixed", "load-curve", "conform-campaign"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")


def flambda():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config-var", "flambda"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    return out or "unknown"


def pin_for(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    return pins.get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--jobs", type=int)
    args = ap.parse_args()

    exe = build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cores", str(os.cpu_count() or 0), "--flambda", flambda(),
           "--out", OUT_DIR]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    pin = pin_for(args.workload, args.seed)
    if pin is not None:
        cmd += ["--pin", pin]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result line")
    for line in lines[:-1]:
        print(line)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"max_rss_mb": rss_kb / 1e3}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
