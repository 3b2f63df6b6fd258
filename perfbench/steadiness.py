#!/usr/bin/env python3
"""Runs each workload N times with consecutive seeds and prints, per
metric, the median, the quartiles, and the spread (Q3 - Q1) / median,
flagged against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 --seed-base 100
    python3 perfbench/steadiness.py --workloads serve-range --runs 5

Run from the root of a checkout.  Raw result lines are appended to
.bench_build/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    log_path = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    ok = True
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not line:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(line)
            with open(log_path, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, seeds %d..%d)" % (
            workload, args.runs, args.seed_base, args.seed_base + args.runs - 1))
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
            print("  %-28s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f %s"
                  % (name, med, q1, q3, spread, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
