#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Builds the system and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root). Then it splits --seconds into sub-runs of about two
seconds and runs each in a process of its own, on a fresh world and a fresh
heap: the untraced binary for --trace 0 (end-to-end metrics), the traced one
for --trace 1 (per-layer metrics). Each metric is reported as the median
over the sub-runs during which the host stole at most 1% of this machine's
CPU time (steal time, from /proc/stat), or over the half with the least
steal when fewer qualify: stolen time went to other tenants of a shared
host, not to the program. Every sub-run's outputs are checked. The last
line of stdout is the JSON result. Its metric
names and units are checked against BENCHMARK.json; any failed check, build
error or timeout exits non-zero.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
SUB_RUN_SECONDS = 2.0
# Share of the machine's CPU time stolen by the host above which a sub-run
# is left out of the medians (see the module docstring).
STEAL_LIMIT = 0.01
# Budget for what surrounds the measured windows of all sub-runs: process
# start, world builds, warm-up, checks.
RUN_TIMEOUT_EXTRA_S = 120
BUILD_TIMEOUT_S = 850


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(out), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_e2e",
         "perfbench_traced", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace: bool):
    """{name: unit} of the metrics BENCHMARK.json promises for this run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def host_cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far; (0, 0) where
    the kernel does not report them."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        ticks = [int(x) for x in fields[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0


def quiet_sub_runs(steal):
    """Indices of the sub-runs the medians are taken over."""
    quiet = [k for k, s in enumerate(steal) if s <= STEAL_LIMIT]
    half = (len(steal) + 1) // 2
    if len(quiet) < half:
        quiet = sorted(range(len(steal)), key=lambda k: steal[k])[:half]
    return quiet


def merge(results, quiet):
    """One result from the sub-runs': counts summed over all of them, each
    metric the median over the `quiet` ones."""
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        merged["metrics"][name] = {
            "value": statistics.median(results[k]["metrics"][name]["value"]
                                       for k in quiet),
            "unit": metric["unit"],
        }
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default="",
                        help="self-test only: flip_byte or drop_seq")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    binary = out / ("perfbench_traced" if args.trace else "perfbench_e2e")
    sub_runs = max(1, round(args.seconds / SUB_RUN_SECONDS))
    window = args.seconds / sub_runs
    deadline = time.monotonic() + args.seconds + RUN_TIMEOUT_EXTRA_S
    results = []
    codes = []
    steal = []
    for k in range(sub_runs):
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(window),
                   "--out-dir", str(out)]
        if args.trace and k + 1 == sub_runs:
            command += ["--details", "1"]
        if args.plant:
            command += ["--plant", args.plant]
        steal_before, total_before = host_cpu_ticks()
        try:
            proc = subprocess.run(
                command, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 3
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            results.append(json.loads(lines[-1]))
        except (json.JSONDecodeError, IndexError):
            sys.stdout.write(proc.stdout)
            print(f"perfbench: sub-run {k}: no result line "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 4
        codes.append(proc.returncode)
        steal_after, total_after = host_cpu_ticks()
        total = total_after - total_before
        steal.append((steal_after - steal_before) / total if total else 0.0)
        print(f"# sub-run {k}: host steal {100 * steal[-1]:.2f}% of CPU time")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")

    quiet = quiet_sub_runs(steal)
    result = merge(results, quiet)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(bool(args.trace))
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{missing}, unexpected {extra}, wrong unit {units}",
              file=sys.stderr)
        return 5

    print(f"# median over sub-runs {quiet} of {sub_runs} (host steal)")
    for name, metric in result["metrics"].items():
        print(f"#   {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    if any(codes) or not result["correct"] or result["failed"]:
        return next((c for c in codes if c), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
