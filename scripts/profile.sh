#!/usr/bin/env bash
# Profile one perfbench workload with the sampling profiler
# (scripts/profile/): builds perfbench with frame pointers into a directory
# of its own, runs one untraced run of the workload under the sampler, and
# prints the self and inclusive tables.
#
# Usage: scripts/profile.sh <workload> <seed> <seconds> [report.py args]
#   e.g. scripts/profile.sh rpc_frag 301 10 --under EchoGuardian
# The build goes to $CARGO_TARGET_DIR/profile (default .bench_build/), the
# profile to its run/ subdirectory; nothing under perfbench/ changes.
# Re-run the report with other filters:
#   python3 scripts/profile/report.py <build>/run/prof.<pid>.txt --under F
set -euo pipefail
if [[ $# -lt 3 ]]; then
  echo "usage: $0 <workload> <seed> <seconds> [report.py args]" >&2
  exit 2
fi
workload="$1"
seed="$2"
seconds="$3"
shift 3
root="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$root/$target"
out="$target/profile"
jobs="$(( $(nproc 2>/dev/null || echo 1) < 4 ? $(nproc 2>/dev/null || echo 1) : 4 ))"

if [[ ! -f "$out/CMakeCache.txt" ]]; then
  cmake -S "$root/perfbench" -B "$out" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer" >&2
fi
cmake --build "$out" --target perfbench_e2e -j "$jobs" >&2
cc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/profile/sampler.c"

mkdir -p "$out/run"
rm -f "$out"/run/prof.*.txt
(cd "$out/run" && LD_PRELOAD="$out/sampler.so" "$out/perfbench_e2e" \
  --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --out-dir "$out/run" > "$out/run/result.json")
echo "result: $(tail -n 1 "$out/run/result.json")"
profile="$(ls "$out"/run/prof.*.txt)"
echo "profile: $profile"
python3 "$root/scripts/profile/report.py" "$profile" "$@"
