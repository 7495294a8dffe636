#!/usr/bin/env python3
"""The benchmark's own test.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b]

Checks, for every workload:
  * one seed always gives the same script, and another seed a different
    one (the scripts are compared by digest);
  * two traced runs at one seed report identical work counts (every
    per-layer metric whose unit is `count`) and both are correct, so a
    later change may rest a count-based claim on them.
Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py {' '.join(map(str, args))} failed")
    return proc.stdout.strip().splitlines()[-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--workloads",
                        default="plan-warm,plan-cold,diagnose")
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads.split(","):
        common = ["--workload", workload, "--seconds", args.seconds]
        a = run("--script-digest", "--seed", 1, *common)
        b = run("--script-digest", "--seed", 1, *common)
        c = run("--script-digest", "--seed", 2, *common)
        if a != b:
            print(f"FAIL {workload}: seed 1 gave two scripts ({a} vs {b})")
            failures += 1
        if a == c:
            print(f"FAIL {workload}: seeds 1 and 2 gave the same script")
            failures += 1

        runs = [json.loads(run("--seed", 1, "--trace", 1, *common))
                for _ in range(2)]
        for i, r in enumerate(runs):
            if not r["correct"]:
                print(f"FAIL {workload}: traced run {i} incorrect")
                failures += 1
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            print(f"FAIL {workload}: counts differ between runs: {diff}")
            failures += 1
        else:
            print(f"ok   {workload}: script {a.split()[0]} "
                  f"({a.split()[1]} ops), {len(counts[0])} counts repeat")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
