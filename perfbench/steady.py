#!/usr/bin/env python3
"""Steadiness mode: repeats each workload and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--seconds S] [--workloads a,b]
                                [--first-seed 101] [--trace 0]
                                [--report set.md] [--json set.json]
    python3 perfbench/steady.py --compare first.json second.json

--seconds defaults to run_seconds of BENCHMARK.json.  Run i of a workload
uses seed first-seed + i.  For every metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
relative spread (Q3 - Q1) / median, next to the bound from BENCHMARK.json
(the target is a spread below a third of the bound).  With --report it
also writes a Markdown table with every run's values and its host-probe
readings; with --json it saves every run's metrics.

--compare takes two saved sets and prints, per workload and metric, both
medians and how much worse the second is than the first as a share of the
first, flagging every change beyond the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        if line.startswith("# run "):
            info = json.loads(line[len("# run "):])
    return result, info, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(first_path, second_path):
    """Prints how the second set's medians moved against the first's."""
    metrics = load_bench()["end_to_end"]
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    beyond = 0
    print("| workload | metric | first median | second median | "
          "worse by | bound |")
    print("|---|---|---|---|---|---|")
    for workload in first:
        if workload not in second:
            continue
        for m in metrics:
            name = m["name"]
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = " **beyond**" if worse > m["bound"] else ""
            beyond += bool(flag)
            print(f"| {workload} | {name} | {a:.6g} | {b:.6g} | "
                  f"{worse:+.4f}{flag} | {m['bound']} |")
    return 1 if beyond else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--report", default="")
    parser.add_argument("--json", default="")
    parser.add_argument("--compare", nargs=2, default=None)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    bench = load_bench()
    args.seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    report = ["| workload | metric | median | Q1 | Q3 | spread | bound |",
              "|---|---|---|---|---|---|---|"]
    runs_table = []
    saved = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, info, wall = run_once(workload, seed, args.seconds,
                                          args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            results.append(result)
            probe = dict(info.get("probe", {}))
            probe["steal"] = info.get("steal_share", 0.0)
            runs_table.append((workload, seed, wall, result, probe))
            print(f"{workload} seed={seed} wall={wall:.1f}s "
                  f"failed={result['failed']}", file=sys.stderr)
        saved[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            saved[workload][name] = values
            q1, q2, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"{workload:10s} {name:28s} median={q2:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={rel:.4f} bound={bound}{flag}")
            report.append(f"| {workload} | {name} | {q2:.6g} | {q1:.6g} | "
                          f"{q3:.6g} | {rel:.4f} | {bound} |")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(saved, f, indent=1)
    if args.report:
        with open(args.report, "w") as f:
            f.write("# Steadiness runs\n\n")
            f.write(f"{args.runs} runs per workload, --seconds "
                    f"{args.seconds}, seeds {args.first_seed}.."
                    f"{args.first_seed + args.runs - 1}, --trace "
                    f"{args.trace}.  Written by `perfbench/steady.py`.\n\n")
            f.write("\n".join(report) + "\n\n## Every run\n\n")
            names = list(runs_table[0][3]["metrics"]) if runs_table else []
            f.write("| workload | seed | wall s | " + " | ".join(names) +
                    " | probe alu ms (before/after) | probe chase ms "
                    "(before/after) | steal share |\n")
            f.write("|---" * (len(names) + 6) + "|\n")
            for workload, seed, wall, result, probe in runs_table:
                vals = " | ".join(
                    f"{result['metrics'][n]['value']:.6g}" for n in names)
                b, a = probe.get("before", {}), probe.get("after", {})
                f.write(f"| {workload} | {seed} | {wall:.1f} | {vals} | "
                        f"{b.get('alu_ms', 0):.0f}/{a.get('alu_ms', 0):.0f} | "
                        f"{b.get('chase_ms', 0):.0f}/"
                        f"{a.get('chase_ms', 0):.0f} | "
                        f"{probe['steal']:.3f} |\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
