#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

1. A short untraced and a short traced run of every workload must pass all
   output checks and emit exactly the metrics BENCHMARK.json names, each
   with its unit.
2. A fault planted in benchmark code must be caught: with --plant flip_byte
   the echo guardian corrupts one reply byte (rpc_small), with --plant
   drop_seq the stream sink ignores one tick (stream_nowait). Each must make
   the run report correct=false, count a failed op and exit non-zero.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(workload, trace, plant=""):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", str(trace)]
    if plant:
        command += ["--plant", plant]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: exits 0 with every output correct"
                   + ("" if code == 0 else f" (exit {code}: {err[-300:]})"))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{label}: emits every {key} metric with "
                   "its unit")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label}: every value is a number")

    for workload, plant in (("rpc_small", "flip_byte"),
                            ("stream_nowait", "drop_seq")):
        code, result, _ = run(workload, 0, plant)
        expect(code != 0, f"{workload} --plant {plant}: exits non-zero")
        expect(result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{workload} --plant {plant}: reports correct=false and a "
               "failed op")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
