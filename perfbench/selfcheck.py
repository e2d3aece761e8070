#!/usr/bin/env python3
"""The benchmark's quick self-check (about a minute after the build).

    python3 perfbench/selfcheck.py

Runs every workload at minimal size (run.py --quick), untraced and traced,
twice each, and asserts that
  * every run is correct, with no failed instance;
  * every metric named in BENCHMARK.json appears, with its unit, and no
    other metric does;
  * the exact counts (the paper's meters, kernel calls, slices, messages,
    copies) repeat exactly across the two invocations;
  * the traced run's per-layer buckets reconcile to its wall time
    (obs.reconciled), and the reported ms buckets sum to the traced wall;
  * a run with COCA_THREADS set is refused.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Metrics that are exact counts: identical on every invocation.
EXACT_SUFFIXES = (".bits", ".calls")
EXACT = {"honest_bits_per_instance", "rounds_per_instance", "net.slices",
         "net.rounds", "net.honest_messages", "net.payload_copies",
         "obs.reconciled"}


def run(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    return proc


def check(cond, what):
    if not cond:
        print("selfcheck FAILED: " + what)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    env = dict(os.environ, COCA_THREADS="2")
    refused = run(bench["workloads"][0]["name"], 0, env)
    check(refused.returncode != 0 and not refused.stdout.strip(),
          "a run with COCA_THREADS set was not refused")
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            results = []
            for _ in range(2):
                proc = run(name, trace)
                check(proc.returncode == 0,
                      "%s trace %d exited %d: %s" %
                      (name, trace, proc.returncode, proc.stderr[-2000:]))
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                check(res["correct"] and res["failed"] == 0 and
                      res["attempted"] >= 1,
                      "%s trace %d is not correct" % (name, trace))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want, "%s trace %d: metric names/units differ "
                      "from BENCHMARK.json" % (name, trace))
                results.append({k: v["value"]
                                for k, v in res["metrics"].items()})
            a, b = results
            for k in a:
                if k in EXACT or k.endswith(EXACT_SUFFIXES):
                    check(a[k] == b[k], "%s trace %d: exact count %s moved "
                          "(%r vs %r)" % (name, trace, k, a[k], b[k]))
            if trace == 1:
                for r in results:
                    check(r["obs.reconciled"] == 1,
                          "%s: traced run does not reconcile" % name)
                    parts = [v for k, v in r.items()
                             if k.endswith(".self_ms") or
                             (k.endswith(".ms") and k != "other.ms")]
                    parts += [r["net.controller_ms"], r["svc.route_ms"],
                              r["svc.handshake_ms"], r["other.ms"]]
                    total = r["obs.traced_wall_ms"]
                    check(abs(sum(parts) - total) <= 1e-9 * max(1.0, total),
                          "%s: per-layer ms sum %r != traced wall %r" %
                          (name, sum(parts), total))
            print("ok  %-18s trace %d" % (name, trace))
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
