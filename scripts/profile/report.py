#!/usr/bin/env python3
"""Self and inclusive tables from the profiles sampler.so writes.

    python3 scripts/profile/report.py prof.<pid>.txt [more files]
        [--under FUNC] [--top N]

Each sample is charged to a stack of functions, leaf first. A sample whose
program counter lies outside the profiled binary (a libc leaf such as
memcpy) is charged to its caller in the binary: the first of the stack's
top words that is a return address into the binary, else the first frame
of the frame-pointer chain that lies in it. The leaf's own symbol is
listed in a table of its own.

Symbols come from nm: the binary's full symbol table, and a shared
library's dynamic table when it has no other. A library's internal
functions are then named after the exported symbol just before them.

--under FUNC keeps the samples with FUNC (a substring of a demangled
name) anywhere in their stack, and gives every share against them.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


class Object:
    """One mapped file's text symbols and LOAD segments."""

    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)
        self.addrs = []
        self.names = []
        self.segments = []  # (file offset, vaddr, file size)
        self._load()

    def _nm(self, extra):
        try:
            out = subprocess.run(
                ["nm", "-C", "--defined-only"] + extra + [self.path],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return []
        symbols = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) < 3 or parts[1] not in "tTwWi":
                continue
            try:
                symbols.append((int(parts[0], 16), parts[2]))
            except ValueError:
                continue
        return symbols

    def _load(self):
        symbols = self._nm([]) or self._nm(["-D"])
        symbols.sort()
        self.addrs = [a for a, _ in symbols]
        self.names = [n for _, n in symbols]
        try:
            out = subprocess.run(["readelf", "-lW", self.path],
                                 capture_output=True, text=True,
                                 check=False).stdout
        except OSError:
            out = ""
        for line in out.splitlines():
            fields = line.split()
            if fields[:1] == ["LOAD"] and len(fields) >= 6:
                self.segments.append((int(fields[1], 16), int(fields[2], 16),
                                      int(fields[4], 16)))

    def symbol(self, file_offset):
        vaddr = file_offset
        for offset, seg_vaddr, size in self.segments:
            if offset <= file_offset < offset + size:
                vaddr = file_offset - offset + seg_vaddr
                break
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else None


class Profile:
    def __init__(self):
        self.maps = []  # (start, end, offset, path), executable only
        self.objects = {}
        self.binary = None
        self.samples = []  # (pc, [words], [frames])
        self.dropped = 0
        self._cache = {}

    def read(self, path):
        maps = []
        with open(path) as f:
            for line in f:
                if line.startswith("s "):
                    head, _, tail = line[2:].partition("|")
                    values = [int(v, 16) for v in head.split()]
                    frames = [int(v, 16) for v in tail.split()]
                    self.samples.append((values[0], values[1:], frames))
                elif line.startswith("map "):
                    fields = line[4:].split(None, 5)
                    if len(fields) < 6 or "x" not in fields[1]:
                        continue
                    start, end = (int(v, 16) for v in fields[0].split("-"))
                    target = fields[5].strip()
                    if target.startswith("["):
                        continue
                    maps.append((start, end, int(fields[2], 16), target))
                elif line.startswith("dropped "):
                    self.dropped += int(line.split()[1])
        if self.binary is None and maps:
            self.binary = maps[0][3]
        self.maps = sorted(set(self.maps) | set(maps))

    def locate(self, addr):
        """(object name, function) of a code address, or None."""
        if addr in self._cache:
            return self._cache[addr]
        found = None
        i = bisect.bisect_right(self.maps, (addr, float("inf"))) - 1
        if i >= 0:
            start, end, offset, path = self.maps[i]
            if start <= addr < end:
                obj = self.objects.get(path)
                if obj is None:
                    obj = self.objects[path] = Object(path)
                name = obj.symbol(addr - start + offset)
                found = (path, name or "?")
        self._cache[addr] = found
        return found

    def stack(self, sample):
        """(outside leaf or None, [functions in the binary, leaf first])."""
        pc, words, frames = sample
        leaf = self.locate(pc)
        chain = []
        outside = None
        if leaf is not None and leaf[0] == self.binary:
            chain.append(leaf[1])
        else:
            outside = leaf[1] if leaf else "?"
            for word in words:
                hit = self.locate(word - 1)
                if hit is not None and hit[0] == self.binary:
                    chain.append(hit[1])
                    break
        for ret in frames:
            hit = self.locate(ret - 1)
            if hit is not None and hit[0] == self.binary:
                if not chain or chain[-1] != hit[1]:
                    chain.append(hit[1])
        return outside, chain


def short(name, width=96):
    return name if len(name) <= width else name[:width - 3] + "..."


def table(title, counter, total, top):
    print(f"\n{title}")
    print(f"{'samples':>8} {'share':>7}  function")
    for name, n in counter.most_common(top):
        print(f"{n:>8} {100.0 * n / total:>6.1f}%  {short(name)}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--under", default=None,
                        help="keep samples with this function in the stack")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    profile = Profile()
    for path in args.profiles:
        profile.read(path)
    if not profile.samples:
        print("no samples", file=sys.stderr)
        return 1

    self_counts = collections.Counter()
    inclusive = collections.Counter()
    outside = collections.Counter()
    kept = 0
    for sample in profile.samples:
        leaf, chain = profile.stack(sample)
        if args.under is not None and not any(args.under in f for f in chain):
            continue
        kept += 1
        self_counts[chain[0] if chain else "(no frame in the binary)"] += 1
        for name in set(chain):
            inclusive[name] += 1
        if leaf is not None:
            outside[leaf] += 1

    total = len(profile.samples)
    print(f"binary: {profile.binary}")
    print(f"samples: {total} ({profile.dropped} dropped)")
    if args.under is not None:
        print(f"under '{args.under}': {kept} samples, "
              f"{100.0 * kept / total:.1f}% of all")
    if kept == 0:
        return 1
    table("self (a leaf outside the binary is charged to its caller in it)",
          self_counts, kept, args.top)
    table("inclusive", inclusive, kept, args.top)
    if outside:
        table("leaves outside the binary, by their own symbol", outside, kept,
              min(args.top, 10))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
