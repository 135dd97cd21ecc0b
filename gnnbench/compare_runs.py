#!/usr/bin/env python3
"""Compares two sets of gnnbench runs against the bounds in BENCHMARK.json.

    python3 gnnbench/compare_runs.py SET_A SET_B [--bench BENCHMARK.json]

A set is a directory holding one file per run: the run's standard output
(`run_benchmark.sh --workload W ... > SET/W.N.out`). The first line names the
workload and seed; the last line is the JSON result. Runs are paired in file
name order, so name them so that pair i of A ran next to pair i of B.

For every (workload, end-to-end metric) it prints each set's median and
quartiles and a verdict:
  * simulated metrics (unit starting with "sim_") are deterministic per seed,
    so they must be identical between the sets for every seed both contain;
    with no seed in common they are held to the bound like host metrics;
  * host metrics: B's median may be worse than A's by at most the metric's
    bound; the result is "unresolved" when A's own quartile spread is wider
    than the bound and B does not beat every run of A.
It also prints how many pairs B wins: a gain claim needs B to win at least
9 of every 10 pairs (ties count for neither side).
The exit code is non-zero when any run failed a check, a metric is missing,
a simulated metric differs, or a host median is worse than its bound;
"unresolved" metrics are counted but do not fail.
Only the Python standard library is used.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(directory):
    """Returns {workload: [(seed, result), ...]} in file name order."""
    runs = {}
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not files:
        sys.exit(f"error: {directory} holds no run files")
    for path in files:
        lines = path.read_text().strip().splitlines()
        if not lines or not lines[0].startswith("gnnbench "):
            sys.exit(f"error: {path} is not gnnbench output")
        header = dict(f.split("=", 1) for f in lines[0].split()[1:] if "=" in f)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            sys.exit(f"error: {path}: the last line is not a JSON result")
        runs.setdefault(header["workload"], []).append((header.get("seed"), result, path.name))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(a, b, better):
    """Relative amount by which b is worse than a (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare_metric(metric, a_runs, b_runs):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [r["metrics"][name]["value"] for _, r, _ in a_runs if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for _, r, _ in b_runs if name in r["metrics"]]
    if not a or not b:
        return "missing", f"{name}: missing from a set"
    qa, qb = quartiles(a), quartiles(b)
    line = (f"{name:14s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}   "
            f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}   ")
    if metric["unit"].startswith("sim_"):
        by_seed = {}
        for runs, side in ((a_runs, 0), (b_runs, 1)):
            for seed, r, _ in runs:
                by_seed.setdefault(seed, (set(), set()))[side].add(r["metrics"][name]["value"])
        shared = [s for s, (va, vb) in by_seed.items() if va and vb]
        if shared:
            same = all(len(by_seed[s][0] | by_seed[s][1]) == 1 for s in shared)
            verdict = "identical" if same else "NOT identical"
            return ("ok" if same else "DIFFERS"), f"{line}{verdict} over {len(shared)} seed(s)"
    change = worse_by(qa[1], qb[1], better)
    wins = sum(1 for x, y in zip(a, b) if worse_by(x, y, better) < 0)
    ties = sum(1 for x, y in zip(a, b) if x == y)
    pairs = min(len(a), len(b))
    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    line += (f"B worse by {change:+.2%} (bound {bound:.0%}), A spread {spread:.2%}, "
             f"B wins {wins}/{pairs} pairs ({ties} ties; a gain needs "
             f"{-(-9 * pairs // 10)})")
    if change > bound:
        return "WORSE", line
    every_run_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
    if spread > bound and not every_run_better:
        return "unresolved", line
    return "ok", line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent /
                                               "BENCHMARK.json"))
    args = parser.parse_args()
    bench = json.loads(Path(args.bench).read_text())
    a_set, b_set = load_set(args.set_a), load_set(args.set_b)

    failing = False
    unresolved = 0
    for side, runs in (("A", a_set), ("B", b_set)):
        for workload, results in runs.items():
            for _, r, file in results:
                if not r["correct"] or r["failed"]:
                    print(f"{side} {workload} {file}: correct={r['correct']} "
                          f"failed={r['failed']}/{r['attempted']}")
                    failing = True
    for workload in sorted(set(a_set) | set(b_set)):
        print(f"== {workload}")
        if workload not in a_set or workload not in b_set:
            print("   present in one set only")
            failing = True
            continue
        for metric in bench["end_to_end"]:
            verdict, line = compare_metric(metric, a_set[workload], b_set[workload])
            print(f"   {verdict:10s} {line}")
            failing |= verdict not in ("ok", "unresolved")
            unresolved += verdict == "unresolved"
    if failing:
        print("sets disagree")
    else:
        print("sets agree within the bounds" +
              (f" ({unresolved} unresolved: spread wider than the bound)" if unresolved else ""))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
