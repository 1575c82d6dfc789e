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
# through the §15 ClockSource seam, never raw std::chrono clocks.
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
# Usage: scripts/ci.sh [--skip-tsan] [--skip-bench] [--skip-chaos]
#        [--soak N] [--asan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_BENCH=0
SKIP_CHAOS=0
RUN_ASAN=0
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
cmake --build --preset default -j "$JOBS"

echo "==> tier-1: ctest (full suite)"
ctest --preset default -j "$JOBS"

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
