#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs of one build of the benchmark.

For every end-to-end metric of every workload it prints the median and
quartiles of each set, the spread (interquartile distance over the median)
and whether the sets agree within the metric's bound from BENCHMARK.json:
each set's spread within the bound, and the two medians apart by no more
than the bound, in either direction. It also checks that the share of failed
operations is the same in every run. Every run lasts BENCHMARK.json's
run_seconds; the first set uses seeds 1-10, the second 11-20. Each run's
line on standard error also gives the share of CPU time the host took from
this machine while it ran (steal, from /proc/stat where there is one), since
a busy host slows every metric.

Run from the repository root:

    python3 perfbench/steady.py                       # every workload
    python3 perfbench/steady.py --workload analytic
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

RUNS = 10
SETS = 2
FIRST_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "perfbench")


def steal_ticks():
    """(steal, total) CPU ticks so far, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def run_once(binary, workload, seed, seconds):
    before = steal_ticks()
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: answers failed the check:\n{out.stderr}")
    after = steal_ticks()
    steal = "n/a"
    if before and after and after[1] > before[1]:
        steal = f"{100 * (after[0] - before[0]) / (after[1] - before[1]):.1f}%"
    return result, steal


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    binary = build()
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + k * RUNS + i
                result, steal = run_once(binary, workload, seed, bench["run_seconds"])
                runs.append(result)
                print(f"{workload} set {k + 1} seed {seed} (host steal {steal}): " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    file=sys.stderr)
            sets.append(runs)

        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        print(f"\n### {workload}\n")
        print("failed share: " + ", ".join(str(s) for s in sorted(shares))
              + ("" if len(shares) == 1 else "  <-- differs between runs"))
        ok &= len(shares) == 1
        print()
        header = "| metric | bound |" + "".join(
            f" set {k + 1} median [q1, q3] | spread |" for k in range(SETS)) + " agree |"
        print(header)
        print("|" + "---|" * (header.count("|") - 1))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = f"| {name} | {bound} |"
            medians, agree = [], True
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                if spread > bound:
                    agree = False
                row += f" {q2:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f} |"
            if abs(medians[1] - medians[0]) / medians[0] > bound:
                agree = False
            ok &= agree
            print(row + (" yes |" if agree else " **no** |"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
