#!/usr/bin/env python3
"""Compare benchmark run sets (standard library only).

A run set is a directory of ``*.out`` files, each the standard output of
one ``pmcts-benchmark --workload W --seed S ...`` run: a run record
(``"record": "run"``, naming the workload and seed) and, as the last line,
the result with its metrics.

    compare.py [--bench BENCHMARK.json] spread RUNS
        Per workload and metric: runs, median, quartiles and the spread
        (interquartile distance / median) against the metric's bound. A
        spread above a third of the bound is flagged.

    compare.py [--bench BENCHMARK.json] compare PARENT CHANGE
        The gain / regression rule, one row per workload x metric. Runs
        pair up by (workload, seed); at least 10 pairs are needed.
          gain        the change wins >= 9/10 of the pairs (ties count for
                      neither) and the medians differ by more than the
                      parent's interquartile distance;
          regression  the change's median is worse than the parent's by
                      more than the bound;
          unresolved  the parent's own spread exceeds the bound, unless
                      every change run beats every parent run;
          same        otherwise.
        Exits 1 if any row is a regression.

Quartiles are ``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{(workload, seed): {"correct", "metrics": {name: value}}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        path = os.path.join(directory, name)
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            sys.exit(f"{path}: empty run output")
        record = next(
            (json.loads(l) for l in lines if l.startswith("{") and '"record": "run"' in l),
            None,
        )
        result = json.loads(lines[-1])
        if record is None or "metrics" not in result:
            sys.exit(f"{path}: no run record or result line")
        key = (record["workload"], record["seed"])
        if key in runs:
            sys.exit(f"{path}: second run of {key}")
        runs[key] = {
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
    if not runs:
        sys.exit(f"{directory}: no *.out runs")
    return runs


def load_bench(path):
    with open(path) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        specs.setdefault(m["name"], (m["better"], None))
    return bench, specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(runs):
    """{(workload, metric): {seed: value}}"""
    table = {}
    for (workload, seed), run in runs.items():
        for metric, value in run["metrics"].items():
            table.setdefault((workload, metric), {})[seed] = value
    return table


def fmt(x):
    return f"{x:.6g}"


def cmd_spread(args):
    _, specs = load_bench(args.bench)
    runs = load_runs(args.runs)
    bad = [k for k, r in runs.items() if not r["correct"]]
    if bad:
        print(f"incorrect runs: {bad}")
    print("workload        metric                         n  median        q1            q3            spread    bound  flag")
    for (workload, metric), values in sorted(by_metric(runs).items()):
        vals = list(values.values())
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = specs.get(metric, (None, None))[1]
        flag = ""
        if bound is not None and metric != "setup_s" and spread > bound / 3:
            flag = "WIDE" if spread > bound else "over-third"
        print(
            f"{workload:15} {metric:30} {len(vals):2} {fmt(med):13} {fmt(q1):13} {fmt(q3):13} "
            f"{spread:8.4f}  {'' if bound is None else bound:5}  {flag}"
        )


def better(direction, a, b):
    """Whether a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def cmd_compare(args):
    _, specs = load_bench(args.bench)
    parent = by_metric(load_runs(args.parent))
    change = by_metric(load_runs(args.change))
    regressions = 0
    print("workload        metric                         pairs wins parent_med    change_med    delta     bound  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in specs:
            continue
        direction, bound = specs[metric]
        seeds = sorted(set(parent[key]) & set(change[key]))
        p = [parent[key][s] for s in seeds]
        c = [change[key][s] for s in seeds]
        if len(seeds) < 10:
            print(f"{workload:15} {metric:30} {len(seeds):5} needs >= 10 pairs")
            continue
        wins = sum(better(direction, cv, pv) for pv, cv in zip(p, c))
        pq1, pmed, pq3 = quartiles(p)
        _, cmed, _ = quartiles(c)
        delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
        worse = -delta if direction == "higher" else delta
        all_better = all(better(direction, cv, pv) for cv in c for pv in p)
        if wins >= 0.9 * len(seeds) and abs(cmed - pmed) > (pq3 - pq1) and better(direction, cmed, pmed):
            verdict = "gain"
        elif bound is None:
            verdict = "info"
        elif pmed and (pq3 - pq1) / abs(pmed) > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regression"
            regressions += 1
        else:
            verdict = "same"
        print(
            f"{workload:15} {metric:30} {len(seeds):5} {wins:4} {fmt(pmed):13} {fmt(cmed):13} "
            f"{delta:+8.4f}  {'' if bound is None else bound:5}  {verdict}"
        )
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default="BENCHMARK.json", help="benchmark definition (default: ./BENCHMARK.json)")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread", help="spread of one run set")
    sp.add_argument("runs")
    cp = sub.add_parser("compare", help="parent vs change run sets")
    cp.add_argument("parent")
    cp.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "spread":
        cmd_spread(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
