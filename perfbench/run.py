#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout's sources and runs one
workload, printing the result object as the last line of stdout.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Build output goes to
.bench_build/perfbench; files a run writes (column files, span dumps) go
to .bench_build/out.  With --trace 1 the result carries every per-layer
metric BENCHMARK.json declares; a layer the workload does not exercise
reports 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ("serve-point", "serve-range", "batch-stored")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) in " + ROOT)
        return False
    # Configuring every time keeps a build tree from an older version of
    # this directory usable; on a configured tree it takes about a second.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4",
              "--target", "perfbench_runner"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("runner timed out")
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("runner printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1

    # Every declared metric of this run's kind, and nothing else.
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = result["metrics"]
    declared = declared_metrics(kind)
    for name, unit in declared:
        if name not in metrics:
            if kind == "end_to_end":
                log("runner did not report " + name)
                return 1
            metrics[name] = {"value": 0, "unit": unit}
    extra = set(metrics) - {n for n, _ in declared}
    if extra:
        log("undeclared metrics: " + ", ".join(sorted(extra)))
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
