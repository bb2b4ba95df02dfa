#!/usr/bin/env bash
# Full verification chain: tier-1 build+tests, the ASan/UBSan sweep, an
# OpenMetrics exposition self-check (simulate --metrics-format openmetrics
# must lint clean under tools/metrics_check, including the per-title wait
# sketch vs clients-served invariant), a strict-flags self-check (a typo'd
# flag, --reps 0, --series-out beside --reps 2 or a zero horizon must fail
# and name the flags), a span capture self-check (a seeded
# simulate --spans-out run must reconcile against its own --metrics-out dump
# under tools/trace_analyze --check), a fault-injection self-check (a
# seeded simulate --fault-plan run must satisfy the hit = repair +
# degraded contract in its trace under tools/trace_check --faults and in
# its metrics under tools/metrics_check, and again on trace and span rings
# of 777 that wrap partway through a client's records, where
# tools/trace_analyze must find no session beyond tolerance, and on a trace
# ring of 793 that cuts a client between a hit and its repair), a metro
# federation self-check (a seeded 4-region vodbcast metro run must conserve
# arrivals across served-local/rerouted/rejected under tools/metrics_check
# and reproduce its stdout and metrics byte for byte at --threads 4), a
# quick pass of the bench suite to prove every binary still writes a valid
# BENCH_*.json that bench_diff can read back, and (opt-in) the mechanical
# perf gate against the committed trajectory.
#
#   scripts/verify_all.sh [--skip-sanitize] [--perf-gate]
#                         [--perf-threshold FRAC]
#
#   --perf-gate   run the full bench suite twice, interleaved with nothing
#                 in between (A then B on the same build), diff A/B to
#                 measure the machine's noise floor, then gate the A run
#                 against the committed root BENCH_*.json via bench_diff.
#                 Exits non-zero on any wall-p50 regression beyond the
#                 threshold — the trajectory gate, made mechanical.
#   --perf-threshold FRAC  relative band handed to bench_diff (default
#                 0.05; raise on noisy machines).
set -euo pipefail
cd "$(dirname "$0")/.."

skip_sanitize=0
perf_gate=0
perf_threshold=0.05
while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitize) skip_sanitize=1; shift ;;
    --perf-gate) perf_gate=1; shift ;;
    --perf-threshold) perf_threshold=$2; shift 2 ;;
    --perf-threshold=*) perf_threshold=${1#--perf-threshold=}; shift ;;
    *)
      echo "usage: $0 [--skip-sanitize] [--perf-gate]" \
           "[--perf-threshold FRAC]" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

if [[ $skip_sanitize -eq 0 ]]; then
  echo "== sanitize sweep =="
  scripts/verify_sanitize.sh
fi

echo "== openmetrics exposition self-check =="
om_dir=$(mktemp -d)
trap 'rm -rf "$om_dir"' EXIT
build/tools/vodbcast simulate --scheme SB:W=52 --bandwidth 300 \
  --horizon 120 --arrivals 4 --seed 42 \
  --metrics-format openmetrics --metrics-out "$om_dir/metrics.txt"
build/tools/metrics_check "$om_dir/metrics.txt" \
  'sum(sb_client_wait_count{title=*}) == sim_clients_served_total' \
  'sim_tune_wait_sketch_min_count == sim_clients_served_total' \
  --verbose

echo "== strict CLI flags self-check =="
# A flag the command does not read, or --reps 0, must fail and name the
# flag instead of running on defaults.
for bad in "--bandwdith 300" "--reps 0"; do
  # shellcheck disable=SC2086
  if build/tools/vodbcast simulate --horizon 10 $bad 2> "$om_dir/bad.err"; then
    echo "strict flags: 'simulate $bad' was accepted" >&2
    exit 1
  fi
  grep -q -- "${bad%% *}" "$om_dir/bad.err"
done
# A zero horizon would print an empty run as a success; it must be refused.
if build/tools/vodbcast simulate --horizon 0 2> "$om_dir/bad.err"; then
  echo "strict flags: 'simulate --horizon 0' was accepted" >&2
  exit 1
fi
grep -q -- "horizon" "$om_dir/bad.err"
# --series-out samples one run: beside --reps above 1 it must be refused,
# naming both flags, on every command that reads both.
for cmd in simulate "hybrid" "hybrid --adaptive"; do
  # shellcheck disable=SC2086
  if build/tools/vodbcast $cmd --horizon 10 --reps 2 \
       --series-out "$om_dir/series.jsonl" 2> "$om_dir/bad.err"; then
    echo "strict flags: '$cmd --reps 2 --series-out' was accepted" >&2
    exit 1
  fi
  grep -q -- "--series-out" "$om_dir/bad.err"
  grep -q -- "--reps" "$om_dir/bad.err"
done

echo "== metro-scale hot-path self-check =="
# A >=100k-client campaign with the phase-keyed plan cache and streaming
# (sample-capped) wait statistics both on. Two invariants: every lookup is
# accounted (hits + misses == clients served), and turning the cache off
# changes nothing in the report — byte-identical stdout, so the wait
# distribution, client count, and buffer peak all match exactly.
# Every timed call leaves exactly one timing sample: one per fired event,
# one per plan-cache hit and one per planned (missed) reception.
timing_asserts=(
  'sim_event_queue_callback_ns_count == sim_event_queue_fired_total'
  'client_plan_cache_hit_ns_count == sim_plan_cache_hits_total'
  'client_plan_reception_ns_count == sim_plan_cache_misses_total')
metro_args=(--scheme SB:W=52 --bandwidth 600 --videos 20
            --horizon 600 --arrivals 200 --seed 7 --stats-cap 4096)
build/tools/vodbcast simulate "${metro_args[@]}" --plan-cache 1 \
  --metrics-format openmetrics --metrics-out "$om_dir/metro.txt" \
  > "$om_dir/metro_cache_on.txt"
build/tools/metrics_check "$om_dir/metro.txt" \
  'sim_plan_cache_hits_total + sim_plan_cache_misses_total == sim_clients_served_total' \
  "${timing_asserts[@]}" \
  --verbose
build/tools/vodbcast simulate "${metro_args[@]}" --plan-cache 0 \
  > "$om_dir/metro_cache_off.txt"
diff "$om_dir/metro_cache_on.txt" "$om_dir/metro_cache_off.txt"
grep -Eq 'clients served: [0-9]{6,}' "$om_dir/metro_cache_on.txt" || {
  echo "metro smoke: expected >=100k clients served" >&2
  exit 1
}

echo "== span capture self-check =="
build/tools/vodbcast simulate --scheme SB:W=52 --bandwidth 300 \
  --horizon 120 --arrivals 4 --seed 42 \
  --metrics-out "$om_dir/metrics.json" \
  --spans-out "$om_dir/spans.jsonl" --spans-limit 131072
build/tools/trace_analyze "$om_dir/spans.jsonl" \
  --check --metrics "$om_dir/metrics.json"

echo "== fault-injection self-check =="
# The trace shows only what the ring kept; the metrics count every hit, so
# the hit = repair + degraded contract is checked on both.
build/tools/vodbcast simulate --scheme SB:W=12 --bandwidth 300 \
  --horizon 240 --arrivals 4 --seed 42 \
  --fault-plan outages=2,bursts=2,stalls=1,restart=1 --fault-seed 7 \
  --trace-out "$om_dir/faults.jsonl" --trace-limit 262144 \
  --metrics-format openmetrics --metrics-out "$om_dir/faults.txt"
build/tools/trace_check "$om_dir/faults.jsonl" --faults
build/tools/metrics_check "$om_dir/faults.txt" \
  'sum(fault_hits_total{kind=*}) == fault_repairs_total + fault_degraded_total' \
  'fault_repair_penalty_min_count == fault_repairs_total' \
  "${timing_asserts[@]}" \
  --verbose
# The same run on rings that wrap partway through a client's block: what
# they keep must still satisfy the fault contract, and every kept session
# must still attribute its whole wait to enumerated phases.
build/tools/vodbcast simulate --scheme SB:W=12 --bandwidth 300 \
  --horizon 240 --arrivals 4 --seed 42 \
  --fault-plan outages=2,bursts=2,stalls=1,restart=1 --fault-seed 7 \
  --trace-out "$om_dir/faults_wrapped.jsonl" --trace-limit 777 \
  --spans-out "$om_dir/faults_wrapped_spans.jsonl" --spans-limit 777
build/tools/trace_check "$om_dir/faults_wrapped.jsonl" --faults
build/tools/trace_analyze "$om_dir/faults_wrapped_spans.jsonl" \
  > "$om_dir/faults_wrapped_analysis.txt"
grep -qF '(0 session(s) beyond tolerance' \
  "$om_dir/faults_wrapped_analysis.txt"
# A trace ring of 793 cuts one client between its fault_hit and its repair:
# trace_check must leave that client unchecked, not report the repair as
# bookkeeping out of thin air.
build/tools/vodbcast simulate --scheme SB:W=12 --bandwidth 300 \
  --horizon 240 --arrivals 4 --seed 42 \
  --fault-plan outages=2,bursts=2,stalls=1,restart=1 --fault-seed 7 \
  --trace-out "$om_dir/faults_cut.jsonl" --trace-limit 793
build/tools/trace_check "$om_dir/faults_cut.jsonl" --faults \
  > "$om_dir/faults_cut_check.txt"
grep -q 'not checked' "$om_dir/faults_cut_check.txt"

echo "== metro federation self-check =="
# A seeded 4-region federation. Every arrival must be accounted for by
# exactly one of the three admission outcomes (the router's conservation
# law), and the slot/merge contract must hold end to end: the --threads 4
# run reproduces the serial stdout and metrics dump byte for byte.
fed_args=(--regions 40,30,20,10 --channels 120 --horizon 120 --seed 7
          --replicate-top 8)
build/tools/vodbcast metro "${fed_args[@]}" \
  --metrics-format openmetrics --metrics-out "$om_dir/fed.txt" \
  > "$om_dir/fed_serial.txt"
build/tools/metrics_check "$om_dir/fed.txt" \
  'sum(metro_served_local_total{region=*}) + sum(metro_rerouted_total{region=*}) + sum(metro_rejected_total{region=*}) == metro_arrivals_total' \
  'sum(metro_region_arrivals_total{region=*}) == metro_arrivals_total' \
  --verbose
build/tools/vodbcast metro "${fed_args[@]}" --threads 4 \
  --metrics-format openmetrics --metrics-out "$om_dir/fed_t4.txt" \
  > "$om_dir/fed_pooled.txt"
diff "$om_dir/fed_serial.txt" "$om_dir/fed_pooled.txt"
diff "$om_dir/fed.txt" "$om_dir/fed_t4.txt"
# One region dark: the federation must keep the conservation law while
# rerouting the survivors' share of the dark head end's broadcast demand.
build/tools/vodbcast metro "${fed_args[@]}" --dark 0 \
  --metrics-format openmetrics --metrics-out "$om_dir/fed_dark.txt" \
  > /dev/null
build/tools/metrics_check "$om_dir/fed_dark.txt" \
  'sum(metro_served_local_total{region=*}) + sum(metro_rerouted_total{region=*}) + sum(metro_rejected_total{region=*}) == metro_arrivals_total' \
  --verbose

echo "== bench suite (quick) + self-diff =="
suite_dir=$(mktemp -d)
trap 'rm -rf "$om_dir" "$suite_dir"' EXIT
scripts/run_bench_suite.sh --quick --out "$suite_dir"
build/tools/bench_diff "$suite_dir" "$suite_dir"

if [[ $perf_gate -eq 1 ]]; then
  echo "== perf gate: committed trajectory vs fresh A/B pair =="
  run_a="$suite_dir/a"
  run_b="$suite_dir/b"
  scripts/run_bench_suite.sh --out "$run_a"
  scripts/run_bench_suite.sh --out "$run_b"
  echo "-- noise floor (A vs B, same build, informational) --"
  build/tools/bench_diff "$run_a" "$run_b" --threshold "$perf_threshold" || \
    echo "perf gate: WARNING — machine noise exceeds the threshold;" \
         "the gate below may be unreliable"
  echo "-- gate (committed root vs fresh run) --"
  build/tools/bench_diff . "$run_a" --threshold "$perf_threshold"
fi

echo "verify_all: OK"
