#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one build.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--seed 1]

For every workload it runs the command of BENCHMARK.json alternately for
set A (seeds seed, seed+1, ...) and set B (seeds seed+1000, ...), and
prints, for each end-to-end metric, each set's median and quartiles, the
spread (q3 - q1) / median, and whether the two sets agree within the
metric's bound: every spread within the bound, and set B's median within
the bound of set A's in either direction, |B - A| / A; the A+B row is the
spread over every run of both sets. It also prints the
failed/attempted counts, whose share must be the same in every run. The
exit code is 1 if anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append", help="workload(s) to run")
    parser.add_argument("--seed", type=int, default=1, help="first seed of set A")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", args.seed), ("B", args.seed + 1000)):
                result, wall = run_once(bench["command"], workload, base + i,
                                        bench["run_seconds"])
                sets[name].append(result)
                print(f"{workload} set {name} seed {base + i}: attempted "
                      f"{result['attempted']} failed {result['failed']} "
                      f"({wall:.1f} s)", flush=True)
        shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
        if len(shares) != 1:
            ok = False
        print(f"\n== {workload}: failed/attempted shares seen: {sorted(shares)}")
        print(f"{'metric':<20} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for set_name, results in sets.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = summary(values)
                spread = (q3 - q1) / med
                medians[set_name] = med
                flag = "" if spread <= bound else "  SPREAD > bound"
                if flag:
                    ok = False
                print(f"{name:<20} {set_name:>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f}{flag}")
            both = [r["metrics"][name]["value"] for results in sets.values() for r in results]
            q1, med, q3 = summary(both)
            print(f"{name:<20} {'A+B':>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                  f"{(q3 - q1) / med:>8.4f}")
            drift = (medians["B"] - medians["A"]) / medians["A"]
            agree = abs(drift) <= bound
            ok &= agree
            print(f"{'':<20} B - A = {drift:+.4f} of A (bound {bound}): "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("\nall sets agree" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
