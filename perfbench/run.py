#!/usr/bin/env python3
"""Builds the coca benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
``.bench_build/perfbench`` (the library sources under ``src/`` plus the
benchmark binary in ``perfbench/src``); later runs only rebuild what
changed. Build output goes to stderr; the binary's report goes to stdout and
ends with one JSON line. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "out")  # relative: keeps socket paths short
BINARY = os.path.join(BUILD, "coca_perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds coca_perfbench; returns True on success."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay inside the checkout
    steps = []
    generated = [os.path.join(BUILD, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "coca_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--quick", action="store_true",
                    help="minimal sizes, one pass (used by selfcheck.py)")
    args = ap.parse_args()

    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1",
              file=sys.stderr)
        return 2
    if not build():
        return 1
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT,
           "--pinned", os.path.join("perfbench", "pinned_meters.txt")]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
