#!/usr/bin/env python3
"""Repeats benchmark runs and reports each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0]
        [--seconds S] [--json OUT]

Runs perfbench/run.py once per seed, in order, and prints for every metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
--json writes the per-run values, for comparing two commits (see README.md,
"A/B on one host").
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
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        res = run_once(args.workload, seed, seconds, args.trace)
        if not res["correct"]:
            print("seed %d: NOT CORRECT (%d of %d failed)" %
                  (seed, res["failed"], res["attempted"]))
        runs.append({"seed": seed, "correct": res["correct"],
                     "metrics": {k: v["value"]
                                 for k, v in res["metrics"].items()}})
        print("seed %d done" % seed, file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "runs": runs}, f, indent=1)
    print("%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
