#!/usr/bin/env python3
"""Checks that the benchmark's deterministic counters repeat exactly.

    python3 e2ebench/repeat_check.py [--seeds 1 2] [--seconds 10]

Runs the traced run (--trace 1) of every workload twice per seed and
compares the counters below between the two run sets. A counter that
differs is a benchmark defect: it is printed and the exit status is 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline-rand100k", "serve-cold", "serve-hot")
COUNTERS = (
    "fast.probes",
    "fast.accepts",
    "fast.accept_ratio",
    "fast.positions_per_probe",
    "fast.early_reject_ratio",
    "fast.event_probe_share",
    "serve.hit_rate",
    "serve.hits",
    "serve.inserts",
    "serve.evictions",
    "common.heap_allocs_per_request",
    "common.arena_high_water_bytes",
)


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: the traced run failed its checks")
    return {k: result["metrics"][k]["value"] for k in COUNTERS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    defects = 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            first = traced_run(workload, seed, args.seconds)
            second = traced_run(workload, seed, args.seconds)
            for name in COUNTERS:
                same = first[name] == second[name]
                defects += not same
                print(f"{workload:17} seed {seed:<3} {name:32} "
                      f"{first[name]!r:>22} {second[name]!r:>22} "
                      f"{'ok' if same else 'DIFFERS'}")
    print(f"{defects} counter(s) differ between run sets")
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
