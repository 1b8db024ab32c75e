#!/usr/bin/env bash
# The repository benchmark's one command.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --smoke
#
# Configures and builds the standalone Release project in benchmark/ into
# build-benchmark/ (the first run compiles ../src; later runs only check it),
# runs bench_profile with the given arguments, then prints the metric table
# and, as the last line, the one-line JSON result (report.py). Every other
# output goes to stderr. Exits non-zero when the build fails, a round fails
# its correctness checks, or a metric named in BENCHMARK.json is missing.
# Pass --json PATH to keep bench_profile's full result for compare.py.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target bench_profile >&2

json=""
prev=""
for arg in "$@"; do
  if [[ $prev == --json ]]; then json="$arg"; fi
  prev="$arg"
done
extra=()
if [[ -z $json ]]; then
  json="$build/result.$$.json"
  extra=(--json "$json")
  trap 'rm -f "$json"' EXIT
fi

status=0
"$build/bench_profile" --workdir "$build" "${extra[@]}" "$@" >&2 || status=$?
python3 "$here/report.py" "$json" "$root/BENCHMARK.json" || status=$?
exit "$status"
