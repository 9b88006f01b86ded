#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

  python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the lines sweep.py writes. For each workload and
end-to-end metric it prints both sides' median and quartiles, the share of
pairwise wins of the second set (runs paired by seed, ties counting for
neither side), and a verdict:

  worse       the second median is worse than the first by more than the
              metric's bound;
  unresolved  the run-to-run spread of either set exceeds the bound, so a
              smaller difference cannot be told from noise, unless every
              run of one side beats every run of the other (then better or
              worse);
  better      the second set wins at least 9 in 10 pairs and its median is
              better by more than the first set's own quartile spread;
  unchanged   otherwise.

Both sets must come from sweep.py with the same seeds.

It also prints each side's share of failed operations per workload.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    for line in open(path):
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, bound, lower_better):
    """a, b: {seed: value}. Returns (verdict, wins, pairs)."""
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = 1 if lower_better else -1
    gain = sign * (qa[1] - qb[1])  # > 0: b is better
    pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if -gain > bound * qa[1]:
        return "worse", wins, len(pairs)
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else float("inf")
    if max(spread_a, spread_b) > bound:
        if all(sign * (x - y) > 0 for x in a.values() for y in b.values()):
            return "better", wins, len(pairs)
        if all(sign * (y - x) > 0 for x in a.values() for y in b.values()):
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        return "better", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("first", help="runs of the parent (or baseline)")
    p.add_argument("second", help="runs of the change")
    args = p.parse_args()
    spec = json.load(open(os.path.join(os.path.dirname(HERE),
                                       "BENCHMARK.json")))
    first, second = load(args.first), load(args.second)
    for w in [w["name"] for w in spec["workloads"]]:
        ra, rb = first.get(w, []), second.get(w, [])
        if not ra or not rb:
            print(f"{w}: missing runs ({len(ra)} vs {len(rb)})")
            continue
        for label, runs in (("first", ra), ("second", rb)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            print(f"{w}: {label} set: {len(runs)} runs, failed {fail}/{att}"
                  f" = {fail / att if att else 0:.6f}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = {r["seed"]: r["result"]["metrics"][name]["value"] for r in ra}
            b = {r["seed"]: r["result"]["metrics"][name]["value"] for r in rb}
            v, wins, pairs = verdict(a, b, m["bound"], m["better"] == "lower")
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            print(f"  {name:20s} {m['unit']:15s} "
                  f"first {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"second {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                  f"wins {wins}/{pairs}  bound {100 * m['bound']:.0f}%  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
