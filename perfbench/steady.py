#!/usr/bin/env python3
"""Steadiness report for perfbench.

Runs each workload --runs times untraced, each run with its own seed, and
prints per end-to-end metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json. A spread above the bound is flagged (setup_s excepted: only
its median is compared between sets); so is one above a third of it. The raw
values are saved as JSON, and --compare checks that a second set's medians
are not worse than a first set's by more than the bounds.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --out .bench_build/set2.json
    python3 perfbench/steady.py --compare .bench_build/set1.json .bench_build/set2.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_sets(bench, workloads, runs, first_seed):
    values = {}
    for wl in workloads:
        values[wl] = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(runs):
            seed = first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: incorrect output\n{p.stderr}")
            for name, vs in values[wl].items():
                vs.append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={vs[-1]:.6g}" for n, vs in values[wl].items()), file=sys.stderr)
    return values


def report(bench, values):
    bad = 0
    for wl, vals in values.items():
        n = len(next(iter(vals.values())))
        print(f"\n{wl}: {n} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            xs = vals[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, bad = "EXCEEDS BOUND", bad + 1
            elif spread > m["bound"] / 3:
                flag = "above bound/3"
            print(f"  {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6} {flag}")
    return bad


def compare(bench, first, second):
    bad = 0
    for wl in first:
        print(f"\n{wl}: second median vs first")
        for m in bench["end_to_end"]:
            a = statistics.median(first[wl][m["name"]])
            b = statistics.median(second[wl][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, bad = "WORSE THAN BOUND", bad + 1
            print(f"  {m['name']:<16} {a:>12.6g} {b:>12.6g} {worse:>+8.4f} {m['bound']:>6} {flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default=".bench_build/steady.json")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.compare:
        sets = []
        for path in a.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 1 if compare(bench, *sets) else 0
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    values = run_sets(bench, workloads, a.runs, a.first_seed)
    with open(a.out, "w") as f:
        json.dump(values, f, indent=1)
    return 1 if report(bench, values) else 0


if __name__ == "__main__":
    sys.exit(main())
