#!/usr/bin/env bash
# The profiler's self-test: build sampler.so and a small program with a
# known hot function, profile it, and require that function to top the
# self table, and the memcpy caller to appear although memcpy is a libc
# leaf. Runs in a temporary directory; takes a few seconds.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/sampler.so" "$here/sampler.c"
cc -O1 -fno-omit-frame-pointer -fno-inline -o "$work/hot" \
  "$here/selftest_hot.c"
(cd "$work" && LD_PRELOAD="$work/sampler.so" ./hot > /dev/null)
profile="$(ls "$work"/prof.*.txt)"
python3 "$here/report.py" "$profile" --top 5 > "$work/report.txt"
cat "$work/report.txt"

# The first row of the self table names the hottest function.
top="$(awk '/^self/ {getline; getline; print $3; exit}' "$work/report.txt")"
if [[ "$top" != ProfileSelftestHot* ]]; then
  echo "profiler self-test FAIL: top self entry is '$top'" >&2
  exit 1
fi
if ! awk '/^self/,/^inclusive/' "$work/report.txt" \
    | grep -q ProfileSelftestCopies; then
  echo "profiler self-test FAIL: memcpy's caller is not charged" >&2
  exit 1
fi
echo "profiler self-test ok: ProfileSelftestHot tops the self table"
