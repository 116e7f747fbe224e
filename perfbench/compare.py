#!/usr/bin/env python3
"""Compares two checkouts of the repository on one benchmark workload.

Runs perfbench/run.py in each checkout for 10 pairs, alternating which
side runs first and giving pair i seed i on both sides,
then reports for every end-to-end metric of BENCHMARK.json each side's
median and quartiles, the head's wins, and a verdict:

  gain        head wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than the base's quartile spread;
  regression  head's median is worse than base's by more than the bound;
  unresolved  base's own quartile spread is wider than the bound;
  same        otherwise.

    python3 perfbench/compare.py --base ../parent --head . \\
        --workload graph_replay
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: seed {seed} failed verification")
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(spec, base, head):
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    q = statistics.quantiles(base, n=4)
    spread = q[2] - q[0]
    mb, mh = statistics.median(base), statistics.median(head)
    if wins >= 0.9 * len(base) and abs(mh - mb) > spread:
        return wins, "gain"
    if sign * (mb - mh) > spec["bound"] * abs(mb):
        return wins, "regression"
    if spread > spec["bound"] * abs(mb):
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--head", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    base, head = [], []
    for i in range(PAIRS):
        seed = i + 1
        order = [("base", args.base), ("head", args.head)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            (base if side == "base" else head).append(
                run(checkout, args.workload, seed, seconds))
        print(f"pair {seed}/{PAIRS} done", file=sys.stderr, flush=True)

    print(f"{'metric':16s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s}  wins  verdict")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        wins, what = verdict(spec, b, h)
        qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        print(f"{name:16s} {statistics.median(b):12.6g} "
              f"[{qb[0]:.6g}, {qb[2]:.6g}] {statistics.median(h):12.6g} "
              f"[{qh[0]:.6g}, {qh[2]:.6g}]  {wins:2d}/{len(b)}  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
