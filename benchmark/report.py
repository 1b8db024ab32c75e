#!/usr/bin/env python3
"""Check a bench_profile result against BENCHMARK.json and print it.

Usage: python3 report.py RESULT_JSON BENCHMARK_JSON

Prints one table row per metric and then, as the last line, the one-line
JSON result {"correct", "attempted", "failed", "metrics"}. The metrics are
the end-to-end metrics, or with --trace 1 the per-layer metrics; a smoke
result is checked for both. When the result holds several workloads the
metric names are prefixed with "<workload>:".

Exits 1 when a round failed, a metric named in BENCHMARK.json is missing or
carries another unit, or the CPU shares and the unattributed share do not
sum to 1.
"""
import json
import math
import sys

SHARES_TOLERANCE = 1e-9


def check_workload(workload, spec, groups, prefix):
    """Print the workload's rows; return (metrics, problems)."""
    name = workload["name"]
    problems = [f"{name}: {e}" for e in workload["errors"]]
    metrics = {}
    print(f"== {name}: {workload['users']} users x {workload['days']} days, "
          f"{workload['threads']} thread(s), {len(workload['rounds']['cpu_s'])} timed "
          f"round(s), checksum {workload['checksum']}")
    for group in groups:
        for entry in spec[group]:
            got = workload[group].get(entry["name"])
            if got is None or got["value"] is None or not math.isfinite(got["value"]):
                problems.append(f"{name}: {group} metric {entry['name']} missing")
                continue
            if got["unit"] != entry["unit"]:
                problems.append(f"{name}: {entry['name']} in {got['unit']}, "
                                f"BENCHMARK.json says {entry['unit']}")
            print(f"  {entry['name']:<36} {got['value']:>18.6f} {entry['unit']}")
            metrics[prefix + entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    if "per_layer" in groups and workload["per_layer"]:
        shares = [m["value"] for key, m in workload["per_layer"].items()
                  if key.endswith(".cpu_share") or key == "sim.fleet.unattributed_share"]
        if abs(sum(shares) - 1.0) > SHARES_TOLERANCE:
            problems.append(f"{name}: CPU shares sum to {sum(shares)!r}, not 1")
    return metrics, problems


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        result = json.load(f)
    with open(argv[2]) as f:
        spec = json.load(f)
    if result["smoke"]:
        groups = ["end_to_end", "per_layer"]
    else:
        groups = ["per_layer"] if result["trace"] else ["end_to_end"]

    workloads = result["workloads"]
    metrics, problems = {}, []
    for workload in workloads:
        prefix = f"{workload['name']}:" if len(workloads) > 1 else ""
        got, bad = check_workload(workload, spec, groups, prefix)
        metrics.update(got)
        problems += bad
    attempted = sum(w["attempted"] for w in workloads)
    failed = sum(w["failed"] for w in workloads)
    if not workloads:
        problems.append("no workload ran")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
