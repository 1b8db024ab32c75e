#!/usr/bin/env python3
"""Check bench_profile's smoke work counters against their committed pins.

Usage: python3 scripts/check_smoke_pins.py RESULT_JSON

RESULT_JSON is the file `bash benchmark/run.sh --smoke --json RESULT_JSON`
writes. scripts/smoke_pins.json, beside this script, maps each smoke
workload to the values pinned for it: the FleetAccumulator `checksum`, the
deterministic QoE values and the per-layer work counts (units `count` and
`bytes`, plus `predictor.pool.rows_per_flush` and
`sim.wave.parked_tasks_mean`). Every one of them is a pure function of the
code and the seed, so the check is exact equality; there is no tolerance.

Exits 0 when every pinned value matches. Otherwise it prints one line per
difference (workload, metric, pinned, got), then the complete replacement
pin file built from RESULT_JSON, and exits 1. A change that means to move a
pin copies that replacement over scripts/smoke_pins.json and says why in
CHANGES.md.
"""
import json
import os
import sys

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "smoke_pins.json")


def observed(workload, name):
    """The result's value for one pinned name, or None when it is absent."""
    if name == "checksum":
        return workload.get("checksum")
    for group in ("end_to_end", "per_layer"):
        metric = workload.get(group, {}).get(name)
        if metric is not None:
            return metric["value"]
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        result = json.load(f)
    with open(PINS) as f:
        pins = json.load(f)

    workloads = {w["name"]: w for w in result["workloads"]}
    diffs = []
    replacement = {}
    for name, pinned in pins.items():
        workload = workloads.get(name, {})
        replacement[name] = {}
        for metric, want in pinned.items():
            got = observed(workload, metric)
            replacement[name][metric] = got
            if got != want:
                diffs.append((name, metric, want, got))

    if not diffs:
        count = sum(len(p) for p in pins.values())
        print(f"smoke pins OK: {count} values over {len(pins)} workloads match exactly")
        return 0
    print(f"smoke pins FAILED: {len(diffs)} value(s) differ", file=sys.stderr)
    for name, metric, want, got in diffs:
        print(f"  {name:<16} {metric:<32} pinned {want!r:<22} got {got!r}", file=sys.stderr)
    print("Replacement pins (copy over scripts/smoke_pins.json only when the move is "
          "intended, and say why in CHANGES.md):", file=sys.stderr)
    print(json.dumps(replacement, indent=2), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
