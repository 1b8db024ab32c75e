#!/usr/bin/env bash
# Configure, build and test — the tier-1 verify, as run by CI — followed by:
#   * the CTest label matrix: the `nn` label (batched-inference parity layer)
#     and the `fleet` label (FleetRunner substrate + experiment drivers) are
#     re-run explicitly, so a label regression fails loudly on every push;
#     the `bayesopt` label pins the optimizer fast path (incremental
#     Cholesky == full refit, batched-acquisition parity), the `codec` label
#     pins the on-disk byte formats (golden bytes, the frame-corruption table,
#     hostile lengths and hostile archive shard tables), the `common` label
#     pins the shared utilities (the slicing-by-8 CRC-32 against its
#     byte-at-a-time reference included); the nn parity tests sweep every
#     dense ISA the host supports in-process, so the plain CTest run already
#     covers every dispatchable kernel;
#   * (Release) an ASan + UBSan build of every test, bench_crash_recovery and
#     bench_scenarios in build-ci-asan/: the whole CTest suite, the
#     crash-recovery smoke and the scenario smoke below run there with every
#     UBSan finding fatal;
#   * the net-file smoke: example_train_exit_predictor trains the exit net,
#     writes it to ${BUILD_DIR}/smoke/exit_net.lxnw as an LXNC model
#     container and reloads it, exiting non-zero unless the reload succeeds
#     and the reloaded net's test accuracy equals the trained net's;
#   * a telemetry capture->replay round-trip smoke (Fig. 12 A/B on 64
#     users): simulate both arms once, archive them, recompute the DiD
#     series from the archives, and exit non-zero unless the replayed
#     accumulators bitwise-match the live runs. The archives and the bench
#     JSON land in ${BUILD_DIR}/smoke/ so CI uploads them as artifacts;
#   * a crash-recovery smoke (bench_crash_recovery): run the checkpointing
#     fleet and SIGKILL it from inside the snapshot commit protocol, then
#     recover via snapshot::find_latest_valid in a fresh process and resume
#     to the horizon, checkpointing daily again — non-zero exit unless the
#     resumed FleetAccumulator checksum AND archive checksum bitwise-match an
#     uninterrupted reference run and the resumed run's first commit logged
#     exactly the bytes captured since the recovered boundary (one day). The
#     resumed leg also writes its archive — built shard by shard from the
#     recovered segment store plus the resumed days — and replays it with
#     telemetry::Replay::run, non-zero unless the replayed checksum equals
#     the live one. The checkpoint root, archive and JSON summaries land in
#     ${BUILD_DIR}/smoke/;
#   * a scenario smoke (bench_scenarios --smoke): the canonical "CDN
#     brownout + flash crowd + churn" script on an A/B fleet — empty-script
#     byte parity, scenario-on grid determinism, a SIGKILLed checkpoint leg
#     resumed through the churn day (all bitwise-verified, non-zero exit on
#     any mismatch) and the per-event DiD / per-cohort analytics report;
#   * observability smokes: the fig12 run above also dumps the obs metrics
#     registry (--metrics-json) and a Chrome trace (--trace-out), validated
#     here with python3 — both files must parse as JSON and the trace must
#     contain predictor.flush, obo.refit and checkpoint.commit spans; and in
#     Release builds bench_obs_overhead gates the obs fast path, exiting
#     non-zero if enabling the full health plane costs more than 3% in
#     sessions per CPU-second (best-of-N per arm, alternating off/on pairs);
#   * the health timeline + SLO watchdog smoke: the scenario run keeps a
#     per-day health timeline under a quiet floor SLO (exit 0 required),
#     bench_health_report summarizes it into a schema-validated JSON report
#     (day records present, deterministic section intact, zero alerts), and
#     a second run under a must-fire ceiling SLO has to exit with code 3,
#     its report listing the sessions-ceiling alert (also parsed by python3);
#   * the perf gate (Release): `bash benchmark/run.sh --smoke` runs the
#     repository benchmark's four workloads on tiny fleets with every
#     correctness check (4-thread checksum equal to 1-thread, replay equal to
#     live, checkpoint recovery), then scripts/check_smoke_pins.py compares
#     its checksums, QoE values and exact work counters (exit-net queries and
#     flushes, rollout segments, pruned rollouts, GP observes, flush
#     occupancy, archive and checkpoint bytes) with scripts/smoke_pins.json
#     by exact equality. A copy of the result with one counter moved must
#     fail the checker, so the gate is shown to bite on every run;
#   * the micro-benchmarks (Release, when Google Benchmark was found):
#     bench_micro filtered to BM_MonteCarloEvaluation — one Algorithm-2
#     evaluation at lockstep batch 1 and 16 — and to the batched
#     exit-net forward (BM_DenseForwardBatch*, BM_PredictBatch) and training
#     step (BM_TrainExitNetBatch: forward, backward and Adam, time per
#     sample at 1 and 32 rows) and to CRC-32
#     beside memcpy (BM_Crc32, BM_Memcpy at 64 B, 4 KiB and 1 MiB), with their
#     JSON kept under ${BUILD_DIR}/smoke/ (micro_montecarlo.json,
#     micro_dense.json, micro_crc32.json). Informational: no gate reads them.
#
# Fleet parity — checksum, archive bytes, deterministic timeline bytes and
# alert days across thread counts, shard sizes, predictor batch sizes, dense
# ISAs, obs on/off and in-process, disk and checkpointer splits — is pinned
# by the fleet parity harness in test_properties (one table of fixtures x
# cells, run by the suite above), and by the perf gate's 4-thread-vs-1-thread
# checksum check.
#
# Usage: scripts/ci.sh [Debug|Release]   (default Release)
set -euo pipefail

BUILD_TYPE="${1:-Release}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${ROOT}/build-ci-${BUILD_TYPE,,}"

cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE="${BUILD_TYPE}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# CTest label matrix (cheap re-runs). --no-tests=error is what actually
# catches label wiring drift: a label matching zero tests would otherwise
# exit 0 and silently disable the gate.
for label in nn fleet snapshot obs scenario bayesopt codec common; do
  ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error -L "${label}"
done

# Crash-recovery smoke: reference run -> checkpointing run killed (-9, raised
# from inside the commit protocol) -> recover + resume in a fresh process,
# checkpointing daily again, asserting bitwise parity against the reference
# and that the resumed run's first commit logged exactly the capture bytes
# recorded since the recovered boundary (one day, not the history); the
# resumed leg writes its segment-store-backed archive and replays it.
# Usage: crash_recovery_smoke BUILD_DIR OUT_DIR
crash_recovery_smoke() {
  local bench="$1/bench/bench_crash_recovery" out="$2"
  mkdir -p "${out}"
  rm -rf "${out}/crash-checkpoints" "${out}/crash-archive"
  "${bench}" --reference --smoke --days 4 \
    --json "${out}/crash_reference.json" \
    | tee "${out}/crash_recovery.txt"
  local ref_checksum ref_archive run_rc logged captured
  ref_checksum="$(sed -n 's/.*"checksum": "\(0x[0-9a-f]*\)".*/\1/p' "${out}/crash_reference.json")"
  ref_archive="$(sed -n 's/.*"archive_checksum": "\(0x[0-9a-f]*\)".*/\1/p' "${out}/crash_reference.json")"
  set +e
  "${bench}" --run --smoke --days 4 --every 1 \
    --root "${out}/crash-checkpoints" \
    --kill-at-checkpoint 2 --kill-during-commit durable \
    2>&1 | tee -a "${out}/crash_recovery.txt"
  run_rc="${PIPESTATUS[0]}"
  set -e
  if [ "${run_rc}" -eq 0 ]; then
    echo "crash-recovery smoke BROKEN: the armed SIGKILL never fired" >&2
    exit 1
  fi
  "${bench}" --resume --smoke --days 4 --every 1 \
    --root "${out}/crash-checkpoints" \
    --expect-checksum "${ref_checksum}" \
    --expect-archive-checksum "${ref_archive}" \
    --archive-dir "${out}/crash-archive" \
    --json "${out}/crash_resume.json" \
    | tee -a "${out}/crash_recovery.txt"
  logged="$(sed -n 's/.*"first_commit_log_bytes": \([0-9]*\).*/\1/p' "${out}/crash_resume.json")"
  captured="$(sed -n 's/.*"first_commit_captured_bytes": \([0-9]*\).*/\1/p' "${out}/crash_resume.json")"
  if [ -z "${logged}" ] || [ "${logged}" -eq 0 ] || [ "${logged}" != "${captured}" ]; then
    echo "crash-recovery smoke FAILED: the resumed run's first commit logged" \
      "'${logged}' capture bytes, want the '${captured}' captured since recovery" >&2
    exit 1
  fi
  echo "crash-recovery smoke OK ($1): killed at checkpoint 2 (commit stage durable)," \
    "resumed bitwise-identical (${ref_checksum} / ${ref_archive}); first resumed" \
    "commit logged ${logged} bytes (one day); its archive replays to the live checksum"
}

# Sanitizer build (Release invocation only, so CI builds it once): the
# whole CTest suite — every on-disk decoder, the golden bytes, the hostile
# tables, the kill-at-every-stage crash grid and the fleet parity harness —
# the crash-recovery smoke (the file-backed capture path across a real
# kill -9) and the scenario smoke (scripted world events, and a fork +
# SIGKILL checkpoint leg resumed through the churn day) under ASan + UBSan,
# any UBSan finding fatal. A separate tree, flags through CMAKE_CXX_FLAGS;
# every test target, bench_crash_recovery and bench_scenarios are built
# there.
if [ "${BUILD_TYPE}" = "Release" ]; then
  SAN_DIR="${ROOT}/build-ci-asan"
  cmake -B "${SAN_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer"
  cmake --build "${SAN_DIR}" -j "$(nproc)" \
    --target lingxi_tests bench_crash_recovery bench_scenarios
  ctest --test-dir "${SAN_DIR}" --output-on-failure --no-tests=error -j "$(nproc)"
  crash_recovery_smoke "${SAN_DIR}" "${SAN_DIR}/smoke"
  rm -rf "${SAN_DIR}/smoke/scenario-checkpoints" "${SAN_DIR}/smoke/scenario-archive"
  "${SAN_DIR}/bench/bench_scenarios" --smoke \
    --root "${SAN_DIR}/smoke/scenario-checkpoints" \
    --archive-dir "${SAN_DIR}/smoke/scenario-archive" \
    | tee "${SAN_DIR}/smoke/scenarios.txt"
  echo "ASan+UBSan OK: whole CTest suite, the crash-recovery and scenario smokes"
fi

SMOKE_DIR="${BUILD_DIR}/smoke"
rm -rf "${SMOKE_DIR}"
mkdir -p "${SMOKE_DIR}"

# Net-file smoke: the one on-disk net format (LXNC via write_file/read_file)
# round-trips a trained exit net; non-zero exit on a failed or unequal reload.
(cd "${SMOKE_DIR}" && "${BUILD_DIR}/examples/example_train_exit_predictor") \
  | tee "${SMOKE_DIR}/train_exit_predictor.txt"
echo "net-file smoke OK: $(ls "${SMOKE_DIR}/exit_net.lxnw")"

"${BUILD_DIR}/bench/bench_fig12_ab_test" \
  --users 64 --days 4 \
  --archive-dir "${SMOKE_DIR}/fig12-archives" \
  --json "${SMOKE_DIR}/fig12.json" \
  --metrics-json "${SMOKE_DIR}/fig12_metrics.json" \
  --trace-out "${SMOKE_DIR}/fig12_trace.json"
echo "capture->replay smoke OK: $(ls "${SMOKE_DIR}/fig12-archives")"

# Observability output validation: the metrics dump and the Chrome trace must
# both be well-formed JSON, and the trace must cover the three span families
# the layer instruments end to end (exit-net flushes, Bayesian-optimizer
# refits, snapshot checkpoint commits).
python3 - "${SMOKE_DIR}/fig12_metrics.json" "${SMOKE_DIR}/fig12_trace.json" <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["schema"] == "lingxi.obs.metrics/v1", metrics.get("schema")
assert metrics["metrics"], "metrics dump is empty"
trace = json.load(open(sys.argv[2]))
names = {event["name"] for event in trace["traceEvents"]}
missing = {"predictor.flush", "obo.refit", "checkpoint.commit"} - names
assert not missing, f"trace missing spans: {sorted(missing)}"
print(f"obs smoke OK: {len(metrics['metrics'])} metrics, "
      f"{len(trace['traceEvents'])} trace events, spans {sorted(names)}")
PYEOF

crash_recovery_smoke "${BUILD_DIR}" "${SMOKE_DIR}"

# Scenario smoke: the canonical "CDN brownout + flash crowd + churn" script
# end to end on an A/B fleet — empty-script byte parity, scenario-on grid
# determinism, a SIGKILLed checkpoint leg resumed through the churn day (all
# bitwise, non-zero exit on any mismatch) and the DiD/cohort analytics
# report. JSON summary, metrics dump and the scripted archive land in
# ${SMOKE_DIR}/ for the artifact upload.
"${BUILD_DIR}/bench/bench_scenarios" --smoke \
  --root "${SMOKE_DIR}/scenario-checkpoints" \
  --archive-dir "${SMOKE_DIR}/scenario-archive" \
  --json "${SMOKE_DIR}/scenarios.json" \
  --metrics-json "${SMOKE_DIR}/scenarios_metrics.json" \
  --timeline-out "${SMOKE_DIR}/scenarios_timeline.bin" \
  --slo "floor:sim.fleet.sessions_total:1:sessions-floor" \
  | tee "${SMOKE_DIR}/scenarios.txt"
echo "scenario smoke OK: $(ls "${SMOKE_DIR}/scenario-archive")"

# Health timeline + SLO watchdog smoke. The scenario run above kept a per-day
# timeline under a floor SLO that a healthy fleet can never trip — its rc 0
# already proves the quiet path. Summarize the timeline with the reporting
# CLI (rc 0 = no alerts on board), validate the JSON report with python3, and
# keep both as CI artifacts.
"${BUILD_DIR}/bench/bench_health_report" \
  --timeline "${SMOKE_DIR}/scenarios_timeline.bin" \
  --json "${SMOKE_DIR}/health_report.json" \
  | tee "${SMOKE_DIR}/health_report.txt"
python3 - "${SMOKE_DIR}/health_report.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "lingxi.obs.health_report/v1", report.get("schema")
assert report["day_records"] > 0, "timeline recorded no fleet days"
det = [m["name"] for m in report["metrics"] if m["deterministic"]]
assert "sim.fleet.sessions_total" in det, f"deterministic section lost: {det}"
assert report["alerts"] == [], f"quiet SLO fired: {report['alerts']}"
print(f"health timeline smoke OK: {report['day_records']} day records, "
      f"{len(report['metrics'])} metric series, {len(det)} deterministic")
PYEOF

# The watchdog must also FIRE: re-run the scenario smoke under a ceiling of 1
# session (violated on day one of any run) and require exit code 3 — the
# SLO-violation code, distinct from parity failures (1) and usage errors (2).
set +e
"${BUILD_DIR}/bench/bench_scenarios" --smoke \
  --root "${SMOKE_DIR}/scenario-checkpoints-slo" \
  --archive-dir "${SMOKE_DIR}/scenario-archive-slo" \
  --timeline-out "${SMOKE_DIR}/scenarios_timeline_fired.bin" \
  --slo "ceiling:sim.fleet.sessions_total:1:sessions-ceiling" \
  > "${SMOKE_DIR}/scenarios_slo_fired.txt" 2>&1
SLO_RC=$?
set -e
if [ "${SLO_RC}" -ne 3 ]; then
  echo "SLO watchdog BROKEN: must-fire rule exited ${SLO_RC}, want 3" >&2
  exit 1
fi
echo "SLO watchdog smoke OK: must-fire ceiling exited 3"

# The fired timeline's report must carry the alert: the reporting CLI exits 1
# when alerts are on board, and python3 parses the whole report, alerts array
# included.
set +e
"${BUILD_DIR}/bench/bench_health_report" \
  --timeline "${SMOKE_DIR}/scenarios_timeline_fired.bin" \
  --json "${SMOKE_DIR}/health_report_fired.json" \
  > "${SMOKE_DIR}/health_report_fired.txt" 2>&1
REPORT_RC=$?
set -e
if [ "${REPORT_RC}" -ne 1 ]; then
  echo "health report BROKEN: fired timeline exited ${REPORT_RC}, want 1" >&2
  exit 1
fi
python3 - "${SMOKE_DIR}/health_report_fired.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "lingxi.obs.health_report/v1", report.get("schema")
assert report["day_records"] > 0, "fired timeline recorded no fleet days"
alerts = report["alerts"]
assert alerts, "must-fire SLO left no alert in the report"
rules = {a["rule"] for a in alerts}
assert rules == {"sessions-ceiling"}, f"unexpected alert rules: {sorted(rules)}"
for a in alerts:
    assert a["metric"] == "sim.fleet.sessions_total", a
    assert a["threshold"] == 1 and a["observed"] > 1, a
print(f"fired health report OK: {len(alerts)} alert(s), first on day "
      f"{alerts[0]['day']} ({alerts[0]['observed']:g} sessions > 1)")
PYEOF

# Obs fast-path regression gate (Release only: Debug timings say nothing
# about the optimized cost of the disabled-path branch or the record path).
# Non-zero exit when the best-of-N overhead exceeds 3%.
if [ "${BUILD_TYPE}" = "Release" ]; then
  "${BUILD_DIR}/bench/bench_obs_overhead" --smoke --reps 5 --threshold 3.0 \
    --json "${SMOKE_DIR}/obs_overhead.json" \
    | tee "${SMOKE_DIR}/obs_overhead.txt"
  echo "obs overhead gate OK"

  # Perf gate: the repository benchmark's smoke, then its checksums, QoE
  # values and work counters against the committed pins (exact equality; a
  # PR that means to move a pin re-pins it and says why in CHANGES.md).
  bash "${ROOT}/benchmark/run.sh" --smoke --json "${SMOKE_DIR}/profile_smoke.json" \
    | tee "${SMOKE_DIR}/profile_smoke.txt"
  # The checker's output (every differing value and, on a mismatch, the
  # replacement pin file) is kept beside the smoke JSON for the artifact.
  python3 "${ROOT}/scripts/check_smoke_pins.py" "${SMOKE_DIR}/profile_smoke.json" 2>&1 \
    | tee "${SMOKE_DIR}/smoke_pins_check.txt"

  # Prove the gate has teeth: one pinned counter moved by one must fail it.
  python3 - "${SMOKE_DIR}/profile_smoke.json" "${SMOKE_DIR}/profile_smoke_perturbed.json" <<'PYEOF'
import json, sys
result = json.load(open(sys.argv[1]))
result["workloads"][0]["per_layer"]["predictor.pool.flushes"]["value"] += 1
json.dump(result, open(sys.argv[2], "w"))
PYEOF
  set +e
  python3 "${ROOT}/scripts/check_smoke_pins.py" "${SMOKE_DIR}/profile_smoke_perturbed.json" \
    > "${SMOKE_DIR}/smoke_pins_perturbed.txt" 2>&1
  PINS_RC=$?
  set -e
  if [ "${PINS_RC}" -ne 1 ]; then
    echo "smoke pin gate BROKEN: a perturbed counter exited ${PINS_RC}, want 1" >&2
    exit 1
  fi
  echo "smoke pin gate OK: pins match, a perturbed counter is caught"

  # Micro-benchmarks: Algorithm 2 with the batched predictor at lockstep
  # batch 1 and 16, the batched exit-net forward (the dense row
  # kernel per ISA, row count and zero-column share, and predict_batch per
  # flush size), then CRC-32 beside memcpy at the same sizes (the bound of
  # the durable plane's checksum pass).
  # bench_micro exists only when Google Benchmark was found at configure
  # time. No gate reads the JSON.
  if [ -x "${BUILD_DIR}/bench/bench_micro" ]; then
    "${BUILD_DIR}/bench/bench_micro" --benchmark_filter=MonteCarlo \
      --benchmark_out="${SMOKE_DIR}/micro_montecarlo.json" \
      --benchmark_out_format=json \
      | tee "${SMOKE_DIR}/micro_montecarlo.txt"
    echo "Monte Carlo micro-benchmark OK"
    "${BUILD_DIR}/bench/bench_micro" \
      --benchmark_filter='DenseForwardBatch|PredictBatch|TrainExitNetBatch' \
      --benchmark_out="${SMOKE_DIR}/micro_dense.json" \
      --benchmark_out_format=json \
      | tee "${SMOKE_DIR}/micro_dense.txt"
    echo "dense / predict_batch / train_step micro-benchmark OK"
    "${BUILD_DIR}/bench/bench_micro" --benchmark_filter='Crc32|Memcpy' \
      --benchmark_out="${SMOKE_DIR}/micro_crc32.json" \
      --benchmark_out_format=json \
      | tee "${SMOKE_DIR}/micro_crc32.txt"
    echo "crc32 / memcpy micro-benchmark OK"
  else
    echo "bench_micro not built (Google Benchmark not found); skipping"
  fi
fi
