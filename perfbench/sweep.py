#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result.

  python3 perfbench/sweep.py --runs 10 --out runs.jsonl
  python3 perfbench/sweep.py --runs 5 --workloads armies_async --out a.jsonl

Each run is one untraced `perfbench/run.py` invocation (seeds 1 to
--runs); its JSON result is appended to --out as one line
{"workload", "seed", "result"}. At the end the spread of every
end-to-end metric is printed: the distance between the first and third
quartiles over the runs, as a share of the median, next to the metric's
bound in BENCHMARK.json. Two such files are the input of compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    spec = json.load(open(os.path.join(os.path.dirname(HERE),
                                       "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    records = []
    for w in args.workloads:
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}",
                      file=sys.stderr)
                continue
            rec = {"workload": w, "seed": seed,
                   "result": json.loads(lines[-1])}
            records.append(rec)
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            r = rec["result"]
            print(f"{w} seed {seed}: attempted {r['attempted']} failed "
                  f"{r['failed']} correct {r['correct']}", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in args.workloads:
        runs = [r["result"] for r in records if r["workload"] == w]
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            s, med = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if s <= bound / 3 else ("  > bound/3" if s <= bound
                                              else "  > bound")
            print(f"{w:16s} {name:20s} median {med:14.4f}  spread "
                  f"{100 * s:6.2f}%  bound {100 * bound:4.0f}%{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
