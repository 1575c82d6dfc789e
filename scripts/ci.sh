#!/usr/bin/env bash
# Tier-1 gate: build + full test suite, then the ThreadSanitizer preset
# over the concurrency-sensitive suites (ctest label "tsan" — including
# test_dedup, whose at-most-once table is hit concurrently by delivery
# workers and replying guardian threads). Optionally
# (--asan) the AddressSanitizer preset over the full suite — the fault
# layer's crash/restart churn makes lifetime bugs likely, so the asan
# stage is the cheap way to catch them.
#
# The bench stage runs the self-checking benches (exit 1 on a property
# violation, not just a slow run): bench_saturation verifies the flow
# control acceptance criteria (goodput retention and drop collapse at 2x
# saturation, shard-determinism) and leaves BENCH_flowctl.json in the
# build tree; bench_batching verifies the batched-drain acceptance
# criteria (>= 1.4x delivered-messages/sec at batch_max 64 vs 1 on 4
# shards, outcome counts bit-identical across batch sizes) and leaves
# BENCH_batching.json; bench_fragmentation verifies the zero-copy wire
# path (>= 30% reduction in bytes copied per delivered fragmented message
# vs the legacy copying model, via BufferStats/buffer.bytes_copied) and
# leaves BENCH_wire.json; bench_encode_decode verifies the codec copy
# budget (zero buffer-layer copies per round trip, linear wire size) and
# leaves BENCH_wire_codec.json; bench_overload verifies the deadline
# acceptance criteria (zero expired executions, goodput retention at 2x
# offered load, shed-count grid determinism) and leaves
# BENCH_deadline.json, re-checked from the JSON by a python gate;
# bench_send_primitives' BM_DuplicateStorm verifies at-most-once
# execution under a duplicate storm (exit 1 on any re-execution, or when
# injected duplicates are never suppressed) and leaves
# BENCH_sendprims.json. All tracked cross-PR. Skippable with --skip-bench.
#
# The bench stage ends with perfbench/selftest.py, the end-to-end
# benchmark's check of itself: short untraced and traced runs of every
# workload must pass their output checks and print exactly the metrics
# (names and units) that BENCHMARK.json declares, and faults planted in
# the benchmark's echo and sink must fail the run. It builds into
# $CARGO_TARGET_DIR/perfbench (default .bench_build/) with Ninja.
#
# A grep lint runs before everything: src/ and tests/ must read time only
# through the §15 ClockSource seam, never raw std::chrono clocks. The
# tier-1 build must print no compiler warning, and neither must an -O3
# (release preset) build of every src/ library. Tier-1 also builds the
# sampling profiler (scripts/profile/) and runs its self-test: in a small
# program with a known hot function, that function must top the report.
#
# The chaos stage runs the deterministic chaos harness (bench_chaos: three
# pinned seeds of composed faults — partitions, one-way cuts, campus cuts,
# link storms, crashes, store failures, dup replays — with the global
# invariant suite checked every epoch; any violation dumps the seed +
# schedule and exits 1) and leaves BENCH_chaos.json. Each seed is bounded
# by the engine's settle deadline, so the stage has a hard wall-time
# ceiling (`timeout 300` on top as a belt). The stage then asserts the
# wall-clock seeds' outcome counts match the pinned goldens below — the
# virtual-clock plumbing must leave the default wall build bit-for-bit
# unchanged, and these counts are the canary. Skippable with --skip-chaos.
#
# --soak N adds N simulated-time seeds to the chaos stage (clock skew,
# drift and reordering storms included). Virtual time makes each soak
# seed cost ~0.1s wall, so a hundred-seed soak is a coffee break, not an
# overnighter; per-seed pass/fail lands in BENCH_chaos.json.
#
# --stress (opt-in) runs four copies of test_chaos and four of
# test_node_runtime at once after the tier-1 suite, then four copies each
# of test_runtime and test_guardian_comm, then four of test_tasks, then
# four of test_dedup (whose window probe and rotation crashes share the
# host with the other copies), and fails if any copy fails. The suites that decide quiescence by wall-clock
# quiet are the ones CPU contention breaks, and spinning waits change that
# contention; the serializer's hand-off, the spin test's own premise and
# the task runtime (carriers shared by four loaded copies) are checked the
# same way. Each copy's output lands in build/stress/.
#
# Usage: scripts/ci.sh [--skip-tsan] [--skip-bench] [--skip-chaos]
#        [--soak N] [--asan] [--stress]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_BENCH=0
SKIP_CHAOS=0
RUN_ASAN=0
RUN_STRESS=0
SOAK=0
EXPECT_SOAK_VALUE=0
for arg in "$@"; do
  if [[ "$EXPECT_SOAK_VALUE" -eq 1 ]]; then
    SOAK="$arg"
    EXPECT_SOAK_VALUE=0
    continue
  fi
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-bench) SKIP_BENCH=1 ;;
    --skip-chaos) SKIP_CHAOS=1 ;;
    --soak) EXPECT_SOAK_VALUE=1 ;;
    --soak=*) SOAK="${arg#--soak=}" ;;
    --asan) RUN_ASAN=1 ;;
    --stress) RUN_STRESS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [[ "$EXPECT_SOAK_VALUE" -eq 1 ]]; then
  echo "--soak requires a seed count" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "==> lint: no raw std::chrono clocks outside src/common/clock"
# The §15 pluggable-clock contract: every time read in the stack goes
# through ClockSource so simulated time and per-node skew reach all of it.
# A raw steady_clock/system_clock call in src/ silently escapes the
# virtual-time world (benches may self-time their own harness cost, so
# bench/ is exempt; clock.{h,cc} is where the wall clock legitimately
# lives).
if grep -rn "std::chrono::steady_clock\|std::chrono::system_clock" \
     --include='*.h' --include='*.cc' src/ tests/ \
     | grep -v '^src/common/clock\.\(h\|cc\):'; then
  echo "lint FAIL: raw std::chrono clock usage outside src/common/clock.{h,cc}" >&2
  exit 1
fi
echo "lint ok: src/ and tests/ read time only through ClockSource"

echo "==> tier-1: configure + build (preset: default)"
cmake --preset default
# The tier-1 build is warning-free (-Wall -Wextra -Wshadow
# -Wnon-virtual-dtor) and stays that way: any `warning:` it prints fails
# the gate. Only recompiled files print, so a fresh build checks them all.
cmake --build --preset default -j "$JOBS" 2>&1 | tee build/tier1_build.log
if grep -q "warning:" build/tier1_build.log; then
  echo "tier-1 build FAIL: compiler warnings:" >&2
  grep "warning:" build/tier1_build.log | sort -u >&2
  exit 1
fi
echo "tier-1 build ok: no compiler warnings"

echo "==> release: -O3 build of every src/ library (preset: release)"
# perfbench compiles src/ at -O3 (Release). There GCC's flow-sensitive
# warnings (-Wrestrict, -Warray-bounds) see inlined code that the -O2
# tier-1 build never shows them, so the src/ libraries are built at that
# level too, under the same no-warning rule.
cmake --preset release
SRC_LIBS="$(sed -n 's/^add_library(\([A-Za-z0-9_]*\).*/\1/p' src/*/CMakeLists.txt)"
# shellcheck disable=SC2086  # one target per word
cmake --build --preset release -j "$JOBS" --target $SRC_LIBS 2>&1 \
  | tee build-release/release_build.log
if grep -q "warning:" build-release/release_build.log; then
  echo "release build FAIL: compiler warnings:" >&2
  grep "warning:" build-release/release_build.log | sort -u >&2
  exit 1
fi
echo "release build ok: no compiler warnings in src/ at -O3"

echo "==> tier-1: ctest (full suite)"
ctest --preset default -j "$JOBS"

echo "==> tier-1: sampling profiler self-test (scripts/profile/)"
bash scripts/profile/selftest.sh

if [[ "$RUN_STRESS" -eq 1 ]]; then
  mkdir -p build/stress
  STRESS_FAILED=0
  STRESS_COPIES=0
  # Runs four copies of each named suite at once and counts the failures.
  stress_wave() {
    echo "==> stress: four copies each of $* at once"
    local pids=() names=()
    for copy in 1 2 3 4; do
      for suite in "$@"; do
        "build/tests/$suite" > "build/stress/$suite.$copy.log" 2>&1 &
        pids+=("$!")
        names+=("$suite.$copy")
      done
    done
    for i in "${!pids[@]}"; do
      STRESS_COPIES=$((STRESS_COPIES + 1))
      if wait "${pids[$i]}"; then
        echo "  ${names[$i]}: pass"
      else
        echo "  ${names[$i]}: FAIL (build/stress/${names[$i]}.log)"
        STRESS_FAILED=$((STRESS_FAILED + 1))
      fi
    done
  }
  stress_wave test_chaos test_node_runtime
  stress_wave test_runtime test_guardian_comm
  stress_wave test_tasks
  stress_wave test_dedup
  if [[ "$STRESS_FAILED" -gt 0 ]]; then
    echo "stress FAIL: $STRESS_FAILED of $STRESS_COPIES copies failed" >&2
    exit 1
  fi
  echo "stress ok: all $STRESS_COPIES copies passed"
fi

if [[ "$SKIP_BENCH" -eq 1 ]]; then
  echo "==> bench: skipped (--skip-bench)"
else
  echo "==> bench: self-checking benches (bench_saturation)"
  (cd build && ./bench/bench_saturation)

  echo "==> bench: self-checking benches (bench_batching)"
  (cd build && ./bench/bench_batching)

  echo "==> bench: self-checking benches (bench_fragmentation)"
  (cd build && ./bench/bench_fragmentation)

  echo "==> bench: self-checking benches (bench_encode_decode)"
  (cd build && ./bench/bench_encode_decode)

  echo "==> bench: self-checking benches (bench_overload)"
  (cd build && ./bench/bench_overload)

  echo "==> bench: BENCH_deadline.json acceptance fields"
  # bench_overload exits nonzero on any violated property; this re-checks
  # the recorded JSON so a silently-empty file cannot pass the gate.
  python3 - <<'PYEOF'
import json, sys
records = {r["name"]: r["fields"]
           for r in json.load(open("build/BENCH_deadline.json"))["records"]}
bad = []
shed = records.get("deadline/overload_2x_shed")
if shed is None:
    bad.append("deadline/overload_2x_shed missing")
elif shed["doomed_executed"] != 0:
    bad.append(f"expired executions = {shed['doomed_executed']} (want 0)")
ret = records.get("deadline/goodput_retention_2x")
if ret is None:
    bad.append("deadline/goodput_retention_2x missing")
elif ret["ratio"] < 0.9:
    bad.append(f"goodput retention at 2x = {ret['ratio']:.2f} (want >= 0.9)")
det = records.get("deadline/determinism")
if det is None or det["identical"] != 1:
    bad.append("shed counts not bit-identical across the delivery grid")
if bad:
    print("DEADLINE acceptance failed:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("DEADLINE acceptance holds: no expired effects, goodput retained, "
      "grid-deterministic")
PYEOF

  echo "==> bench: at-most-once gate (bench_send_primitives BM_DuplicateStorm)"
  (cd build && ./bench/bench_send_primitives --benchmark_filter=BM_DuplicateStorm)

  echo "==> bench: end-to-end benchmark self-test (perfbench/selftest.py)"
  python3 perfbench/selftest.py
fi

if [[ "$SKIP_CHAOS" -eq 1 ]]; then
  echo "==> chaos: skipped (--skip-chaos)"
else
  if [[ "$SOAK" -gt 0 ]]; then
    echo "==> chaos: deterministic fault-schedule gate (3 pinned seeds + $SOAK sim-time soak seeds)"
    (cd build && timeout $((300 + SOAK)) ./bench/bench_chaos --soak "$SOAK")
  else
    echo "==> chaos: deterministic fault-schedule gate (bench_chaos, 3 seeds)"
    (cd build && timeout 300 ./bench/bench_chaos)
  fi

  echo "==> chaos: pinned wall-clock outcome counts"
  # The unsupervised wall-clock seeds are count-deterministic by contract;
  # a drift here means the default (wall) build changed behavior. The
  # supervised seed 225 is timing-dependent, so only its schedule-derived
  # fields could be pinned — leave it to the invariant suite.
  python3 - <<'PYEOF'
import json, sys
golden = {
    "chaos/seed:114": {"events": 16, "crashes": 1, "dup_replays": 2,
                       "ops_acked": 26},
    "chaos/seed:163": {"events": 13, "crashes": 2, "dup_replays": 1,
                       "ops_acked": 29},
}
records = {r["name"]: r["fields"]
           for r in json.load(open("build/BENCH_chaos.json"))["records"]}
bad = []
for name, want in golden.items():
    got = records.get(name)
    if got is None:
        bad.append(f"{name}: missing from BENCH_chaos.json")
        continue
    for key, value in want.items():
        if int(got.get(key, -1)) != value:
            bad.append(f"{name}: {key} = {int(got.get(key, -1))}, pinned {value}")
if bad:
    print("pinned chaos counts drifted:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("pinned chaos counts hold: " + ", ".join(sorted(golden)))
PYEOF
fi

if [[ "$SKIP_TSAN" -eq 1 ]]; then
  echo "==> tsan: skipped (--skip-tsan)"
else
  echo "==> tsan: configure + build (preset: tsan)"
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"

  echo "==> tsan: ctest (label: tsan)"
  ctest --preset tsan
fi

if [[ "$RUN_ASAN" -eq 1 ]]; then
  echo "==> asan: configure + build (preset: asan)"
  cmake --preset asan
  cmake --build --preset asan -j "$JOBS"

  echo "==> asan: ctest (full suite)"
  ctest --preset asan -j "$JOBS"
fi

echo "==> ci: all green"
