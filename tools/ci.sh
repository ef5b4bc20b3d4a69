#!/usr/bin/env bash
# Single-command CI entry point. Builds the tree under ASan/UBSan and runs,
# in order:
#   1. the full tier-1 suite (every registered test),
#   2. the chaos suite      (ctest -L chaos  — fault-injection survival),
#   3. the oracle suite     (ctest -L oracle — serializability oracle +
#                            invariant auditor, incl. the broken-protocol
#                            negative control),
#   4. the determinism tests (byte-identical replay, serial-vs-parallel
#      sweeps) as an explicit final gate,
#   5. a bounded chaos soak (fixed seeds, 3 compound-fault cocktails across
#      all five protocols) under the same sanitizer, always with --check so
#      the pipelined verifier rides every soak run,
#   6. a real-substrate loopback smoke: ccserve is started (oracle on) and
#      driven by ccload for each of the five protocols; a lost transaction,
#      a conservation violation, zero commits, or an unclean server
#      shutdown fails the leg,
#   6b. a split-process server crash: ccserve --crash=2:0.3 (oracle on)
#      severs every connection, replays its log and resumes, while a
#      ccload started with only --recovery must redial and keep
#      committing; a non-zero exit from either process fails the leg,
#   6c. one ccserve serving three sequential ccload runs: the server's
#      reactor accepts each run, sees it hang up and unroutes it, and
#      retires every finished transaction's state; the leg fails if either
#      process fails, if the live transaction-state count ccserve reports
#      at shutdown exceeds clients x runs (a bound independent of commits),
#      or if a later run aborts more than the first run plus one attempt
#      per client (the server must take each run's uids as new),
#   7. a real-substrate chaos cocktail: each of the five protocols runs on
#      threads + TCP with frame drop/duplicate/delay-spike, one hard
#      partition, and one server crash + log-replay restart, oracle on; a
#      lost transaction (exit 4), an oracle violation, or a stall fails,
#   8. a perf-smoke gate (ctest -L perf-smoke): the allocation-free
#      steady-state contracts — the event kernel's Delay/broadcast paths
#      AND the real-substrate wire path (encode/flush/split/decode) — are
#      asserted exactly via a counting operator new,
#   8b. the same perf-smoke suite in an unsanitized Release build (a
#      sibling tree, <build-dir>-release): the frame and message pools are
#      bypassed under ASan and the paper-scale allocation ceiling skips
#      there, so only this leg enforces the recycling contracts and the
#      per-commit ceiling (skipped when the main build is already
#      unsanitized, which runs them in step 8),
#   9. a real-substrate throughput floor: the loopback probe (same config
#      bench_baseline.sh records) must not fall more than
#      CCSIM_CI_TPUT_TOLERANCE percent below the tracked
#      BENCH_kernel.json real_substrate number. Wall-clock throughput is
#      host- and build-sensitive, so the gate self-skips (with a message)
#      under a sanitizer, in a Debug build, or when the baseline was
#      recorded on a host with a different core count,
#  10. a checker-overhead budget gate: the tracked BENCH_kernel.json must
#      record on_overhead_pct <= CCSIM_CI_CHECKER_BUDGET (default 12) — the
#      price of the always-on verifier is a CI-enforced contract, not a
#      hope,
#  11. a stress leg: the substrate and chaos suites repeated
#      (ctest --repeat until-fail:N) while one busy-loop per core competes
#      for the CPU, so thread/TCP races that only open up on a loaded
#      machine fail here rather than on a developer's laptop.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
# Environment:
#   CCSIM_CI_SANITIZE   sanitizer for the build: asan (default), tsan, OFF
#   CCSIM_CI_JOBS       parallelism (default: nproc)
#   CCSIM_CI_CHECKER_BUDGET  max allowed checker-on overhead percent (12)
#   CCSIM_CI_SMOKE_SECS  measured seconds per protocol in the loopback
#                        smoke (default 5; ~30 s wall across all five)
#   CCSIM_CI_TPUT_TOLERANCE  allowed real-substrate commits/s shortfall
#                        versus the baseline, percent (default 10)
#   CCSIM_CI_STRESS_REPEAT  repetitions of each substrate/chaos test in
#                        the stress leg (default 10; one repetition takes
#                        ~12 s in an ASan build on 4 cores, so ~2 min)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
# Absolutize: later steps cd into the build dir and still reference it.
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"
sanitize="${CCSIM_CI_SANITIZE:-asan}"
jobs="${CCSIM_CI_JOBS:-$(nproc)}"
checker_budget="${CCSIM_CI_CHECKER_BUDGET:-12}"
smoke_secs="${CCSIM_CI_SMOKE_SECS:-5}"
tput_tolerance="${CCSIM_CI_TPUT_TOLERANCE:-10}"
stress_repeat="${CCSIM_CI_STRESS_REPEAT:-10}"

step() { echo; echo "=== $* ==="; }

step "configure ($build_dir, CCSIM_SANITIZE=$sanitize)"
cmake -B "$build_dir" -S "$repo_root" -DCCSIM_SANITIZE="$sanitize"

step "build"
cmake --build "$build_dir" -j"$jobs"

cd "$build_dir"

step "tier-1: full test suite"
ctest --output-on-failure -j"$jobs"

step "chaos suite (ctest -L chaos)"
ctest -L chaos --output-on-failure -j"$jobs"

step "oracle suite (ctest -L oracle)"
ctest -L oracle --output-on-failure -j"$jobs"

step "determinism gate"
ctest -R "Determinism" --output-on-failure -j"$jobs"

step "bounded chaos soak (3 fixed seeds x 5 protocols, oracle on)"
"$build_dir"/tools/ccsim_run --chaos-soak=3 --seed=1 --jobs="$jobs" --check

# Starts ccserve in the background on an ephemeral port with the given
# flags and waits for its port file; sets serve_pid and port_file.
start_ccserve() {
  local name="$1"
  shift
  port_file="$build_dir/ccserve.$name.port"
  rm -f "$port_file"
  "$build_dir"/tools/ccserve --port=0 --port-file="$port_file" "$@" &
  serve_pid=$!
  for _ in $(seq 100); do
    [[ -s "$port_file" ]] && return 0
    sleep 0.1
  done
  echo "FAIL: ccserve ($name) never wrote its port"
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}

step "ccserve/ccload loopback smoke (5 protocols x ${smoke_secs}s, oracle on)"
# One fresh server per protocol: a poisoned server state from one run must
# not be able to mask (or cause) a failure in the next. ccload exits
# non-zero on zero commits, lost transactions, or a conservation
# violation; ccserve exits non-zero on an unclean shutdown; set -e
# propagates both.
for algo in 2pl cert callback no-wait no-wait-notify; do
  start_ccserve "$algo" --algorithm="$algo" --clients=8 --check \
      --duration=$((smoke_secs + 60))
  "$build_dir"/tools/ccload --port-file="$port_file" --algorithm="$algo" \
      --clients=8 --duration="$smoke_secs" --warmup=1
  kill -TERM "$serve_pid" 2>/dev/null || true
  wait "$serve_pid"
done

step "split-process server crash (ccserve --crash + ccload --recovery, 2pl)"
# The server's config alone carries the crash window; the load generator
# runs the recovery layer without faults of its own, as two separately
# started processes would. The server is stopped before a ccload failure
# is reported, so no process outlives the leg.
start_ccserve split-crash --algorithm=2pl --clients=8 --check \
    --crash=2:0.3 --duration=$((smoke_secs + 60))
load_status=0
"$build_dir"/tools/ccload --port-file="$port_file" --algorithm=2pl \
    --clients=8 --recovery --duration="$smoke_secs" --warmup=1 ||
  load_status=$?
kill -TERM "$serve_pid" 2>/dev/null || true
wait "$serve_pid"
if (( load_status != 0 )); then
  echo "FAIL: ccload exited $load_status against a crashing ccserve"
  exit 1
fi

step "one ccserve, three sequential ccload runs (2pl, state retirement)"
# The server outlives its load runs, as a long-lived ccserve does. Its
# shutdown summary reports the transaction states it still holds: finished
# attempts are retired, so only attempts a departed client left open may
# remain, at most one per client per run.
seq_runs=3
seq_clients=8
serve_log="$build_dir/ccserve.sequential.log"
start_ccserve sequential --algorithm=2pl --clients="$seq_clients" --check \
    --duration=$((seq_runs * (smoke_secs + 1) + 60)) >"$serve_log"
load_log="$build_dir/ccload.sequential.log"
load_status=0
run_aborts=()
for _ in $(seq "$seq_runs"); do
  "$build_dir"/tools/ccload --port-file="$port_file" --algorithm=2pl \
      --clients="$seq_clients" --duration="$smoke_secs" --warmup=1 \
      >"$load_log" || load_status=$?
  cat "$load_log"
  (( load_status == 0 )) || break
  run_aborts+=("$(sed -n 's/^commits *: [0-9]* (aborts \([0-9]*\),.*/\1/p' \
      "$load_log")")
done
kill -TERM "$serve_pid" 2>/dev/null || true
serve_status=0
wait "$serve_pid" || serve_status=$?
cat "$serve_log"
if (( load_status != 0 || serve_status != 0 )); then
  echo "FAIL: ccload exited $load_status, ccserve exited $serve_status"
  exit 1
fi
for aborts in "${run_aborts[@]}"; do
  if [[ -z "$aborts" ]] ||
      (( aborts > run_aborts[0] + seq_clients )); then
    echo "FAIL: ccload runs against one ccserve aborted" \
         "${run_aborts[*]} attempts (bound: first run + $seq_clients)"
    exit 1
  fi
done
live_states=$(sed -n 's/.* \([0-9][0-9]*\) live transaction states.*/\1/p' \
    "$serve_log")
if [[ -z "$live_states" ]] ||
    (( live_states > seq_clients * seq_runs )); then
  echo "FAIL: ccserve holds '${live_states}' transaction states after" \
       "$seq_runs runs of $seq_clients clients (bound $((seq_clients * seq_runs)))"
  exit 1
fi
echo "ccserve held $live_states transaction states after $seq_runs runs"

step "real-substrate chaos cocktail (5 protocols, drop+dup+spike+hard-partition+crash)"
# The wire-level fault plan from DESIGN.md §5c on real threads + TCP:
# 2% frame drop, 1% duplicate, 5% 5 ms delay spikes, one hard partition
# (TCP connection killed mid-run), one server crash + log-replay restart.
# ccsim_run exits 4 if any committed transaction was lost, non-zero on an
# oracle violation or stall; set -e propagates.
for algo in 2pl cert callback no-wait no-wait-notify; do
  "$build_dir"/tools/ccsim_run --substrate=real --algorithm="$algo" \
      --clients=8 --duration=4 --check \
      --drop=0.02 --dup=0.01 --spike=0.05:5 \
      --partition=0:1.5:0.5:hard --crash=-1:2.5:0.3
done

step "perf-smoke gate (allocation-free steady states, ctest -L perf-smoke)"
ctest -L perf-smoke --output-on-failure -j"$jobs"

step "allocation ceilings (unsanitized Release build, ctest -L perf-smoke)"
if [[ "$sanitize" == "OFF" ]]; then
  echo "skipped: the main build is unsanitized; step 8 enforced them"
else
  release_dir="${build_dir}-release"
  cmake -B "$release_dir" -S "$repo_root" -DCCSIM_SANITIZE=OFF \
      -DCMAKE_BUILD_TYPE=Release
  cmake --build "$release_dir" -j"$jobs" --target perf_smoke_test
  (cd "$release_dir" && ctest -L perf-smoke --output-on-failure -j"$jobs")
fi

step "real-substrate throughput floor (within ${tput_tolerance}% of baseline)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
if [[ "$sanitize" != "OFF" ]]; then
  echo "skipped: sanitized build ($sanitize) — wall-clock throughput is" \
       "not comparable to the baseline"
elif [[ "$build_type" != "Release" && "$build_type" != "RelWithDebInfo" ]]; then
  echo "skipped: build type $build_type is not an optimized build"
elif ! baseline_tput_info="$(2>&1 python3 - "$repo_root/BENCH_kernel.json" "$(nproc)" <<'PYEOF'
import json, sys
try:
    baseline = json.load(open(sys.argv[1]))
except OSError:
    sys.exit("no BENCH_kernel.json - run tools/bench_baseline.sh")
real = baseline.get("real_substrate", {})
tput = real.get("commits_per_second")
if not tput:
    sys.exit("baseline has no real_substrate.commits_per_second")
cores = baseline.get("host", {}).get("cores")
if cores != int(sys.argv[2]):
    sys.exit(f"baseline recorded on a {cores}-core host, this one has "
             f"{sys.argv[2]} - numbers are not comparable")
print(tput, real.get("shards", 1), real.get("clients", 16),
      real.get("duration_seconds", 3))
PYEOF
)"; then
  echo "skipped: $baseline_tput_info"
else
  read -r baseline_tput probe_shards probe_clients probe_secs \
      <<<"$baseline_tput_info"
  "$build_dir"/tools/ccsim_run --substrate=real --algorithm=2pl \
      --clients="$probe_clients" --shards="$probe_shards" \
      --duration="$probe_secs" --update-delay=0 --internal-delay=0 \
      --external-delay=0 --csv >"$build_dir/ci_real_probe.csv"
  probe_tput=$(awk -F, 'NR==2{print $7}' "$build_dir/ci_real_probe.csv")
  python3 - "$baseline_tput" "$probe_tput" "$tput_tolerance" <<'PYEOF'
import sys
baseline, probe, tolerance = map(float, sys.argv[1:4])
floor = baseline * (1 - tolerance / 100)
print(f"real-substrate probe: {probe:.0f} commits/s "
      f"(baseline {baseline:.0f}, floor {floor:.0f})")
if probe < floor:
    sys.exit(f"FAIL: real-substrate loopback throughput {probe:.0f} "
             f"commits/s fell more than {tolerance}% below the tracked "
             f"baseline {baseline:.0f}")
PYEOF
fi

step "checker-overhead budget (<= ${checker_budget}%)"
python3 - "$repo_root/BENCH_kernel.json" "$checker_budget" <<'PYEOF'
import json, sys
try:
    baseline = json.load(open(sys.argv[1]))
except OSError:
    sys.exit(f"FAIL: {sys.argv[1]} missing - run tools/bench_baseline.sh")
budget = float(sys.argv[2])
guard = baseline.get("checker_guard", {})
overhead = guard.get("on_overhead_pct")
if overhead is None:
    sys.exit("FAIL: checker_guard.on_overhead_pct missing from baseline - "
             "regenerate with tools/bench_baseline.sh")
print(f"checker-on overhead: {overhead}% (budget {budget}%)")
if overhead > budget:
    sys.exit(f"FAIL: checker-on overhead {overhead}% exceeds the "
             f"{budget}% budget")
PYEOF

step "stress: substrate + chaos suites x${stress_repeat} under a CPU hog"
# One busy loop per core keeps every test thread competing for the CPU, the
# condition under which handshake and wakeup races surface. The hogs die
# with the leg whether it passes or fails.
hog_pids=()
stop_hogs() {
  if (( ${#hog_pids[@]} > 0 )); then
    kill "${hog_pids[@]}" 2>/dev/null || true
    wait "${hog_pids[@]}" 2>/dev/null || true
    hog_pids=()
  fi
}
trap stop_hogs EXIT
for _ in $(seq "$(nproc)"); do
  yes >/dev/null &
  hog_pids+=($!)
done
ctest -L 'substrate|chaos' --repeat until-fail:"$stress_repeat" \
    --output-on-failure -j"$jobs"
stop_hogs

step "ci passed"
