#!/usr/bin/env python3
"""Writes perfbench/pinned_meters.txt: the exact meters of every workload's
input pool for a range of seeds.

    python3 perfbench/pin.py [--seeds 0-99,900-909]

Each line is "<workload> <seed> <instances> <sum of rounds> <sum of honest
bits> <FNV-1a 64 of the per-instance (rounds, honest bits), hex>". A
benchmark run whose (workload, seed) has a line checks its reference
executions against it and fails on any difference. Only regenerate the file
when a change is meant to move the paper's meters, and say so.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

WORKLOADS = ["piz_wide_input", "piz_many_parties", "sharded_mixed",
             "wire_uds"]
HEADER = """\
# Pinned exact meters of the benchmark's input pools, one line per
# (workload, seed): <workload> <seed> <instances> <sum of rounds>
# <sum of honest bits> <FNV-1a 64 of every instance's (rounds, honest bits)>.
# Written by `python3 perfbench/pin.py`; a run whose seed appears here fails
# when its reference executions differ from the line.
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-99,900-909")
    args = ap.parse_args()
    seeds = []
    for part in args.seeds.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not run.build():
        return 1
    os.makedirs(os.path.join(ROOT, run.OUT), exist_ok=True)
    lines = []
    for workload in WORKLOADS:
        for seed in seeds:
            out = subprocess.run(
                [run.BINARY, "--print-meters", "--workload", workload,
                 "--seed", str(seed), "--out-dir", run.OUT],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            lines.append(out.stdout.strip())
    with open(os.path.join(HERE, "pinned_meters.txt"), "w") as f:
        f.write(HEADER + "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
