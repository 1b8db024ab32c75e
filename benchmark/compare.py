#!/usr/bin/env python3
"""Compare two sets of bench_profile results, one row per (workload, metric).

Usage:
  python3 benchmark/compare.py --base A1.json A2.json ... \\
                               --change B1.json B2.json ... [--spec BENCHMARK.json]

Each input is a result kept with `bash benchmark/run.sh ... --json PATH`.
Runs are paired in the order given (base[i] with change[i]); give the same
seeds in the same order on both sides. For every end-to-end metric of
BENCHMARK.json the table shows each side's median and quartiles, the
change's median relative to the base, how many pairs the change won, and a
verdict:

  gain          at least ten pairs ran, the change won at least 9/10 of
                them (ties count for neither), and the medians differ by
                more than the base's interquartile range;
  regression    the change's median is worse than the base's by more than
                the metric's bound;
  unresolved    either side's interquartile range, as a share of its
                median, exceeds the bound, and the change did not read
                better in every run than the base did in every run;
  within bound  otherwise.

Exits 1 when any row is a regression or unresolved — the A/A check (two
sets of runs of one commit) expects every row within bound.
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    """{workload: {metric: [values in file order]}} over the given results."""
    runs = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for workload in result["workloads"]:
            per_metric = runs.setdefault(workload["name"], {})
            for name, metric in workload["end_to_end"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(x, y, higher):
    """True when x reads strictly better than y."""
    return x > y if higher else x < y


def verdict(base, change, higher, bound):
    med_a, med_b = statistics.median(base), statistics.median(change)
    q1_a, q3_a = quartiles(base)
    q1_b, q3_b = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(better(b, a, higher) for a, b in pairs)
    worse_by = ((med_a - med_b) if higher else (med_b - med_a)) / med_a if med_a else 0.0
    spread = max((q3_a - q1_a) / med_a if med_a else 0.0,
                 (q3_b - q1_b) / med_b if med_b else 0.0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(med_b, med_a, higher)
            and abs(med_b - med_a) > q3_a - q1_a):
        label = "gain"
    elif spread > bound and not all(better(b, a, higher) for a in base for b in change):
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "within bound"
    return {"med_a": med_a, "q_a": (q1_a, q3_a), "med_b": med_b, "q_b": (q1_b, q3_b),
            "rel": (med_b - med_a) / med_a if med_a else 0.0, "wins": wins,
            "pairs": len(pairs), "spread": spread, "label": label}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(here, os.pardir, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)

    print(f"{'workload':<16} {'metric':<20} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>6} {'spread':>7} "
          f"{'bound':>6}  verdict")
    failing = 0
    for workload in sorted(set(base) & set(change)):
        for entry in spec["end_to_end"]:
            a = base[workload].get(entry["name"])
            b = change[workload].get(entry["name"])
            if not a or not b:
                continue
            v = verdict(a, b, entry["better"] == "higher", entry["bound"])
            failing += v["label"] in ("regression", "unresolved")
            side_a = f"{v['med_a']:.6g} [{v['q_a'][0]:.6g}, {v['q_a'][1]:.6g}]"
            side_b = f"{v['med_b']:.6g} [{v['q_b'][0]:.6g}, {v['q_b'][1]:.6g}]"
            print(f"{workload:<16} {entry['name']:<20} {side_a:>34} {side_b:>34} "
                  f"{100 * v['rel']:>+7.2f}% {v['wins']:>2}/{v['pairs']:<3} "
                  f"{100 * v['spread']:>6.2f}% {100 * entry['bound']:>5.1f}%  {v['label']}")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
