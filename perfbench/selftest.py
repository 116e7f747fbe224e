#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

For every workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and verifies its own results (failed == 0);
  * a traced run prints every per-layer metric with its unit;
  * a corrupted reference digest makes the run report failed > 0;
and that run.py, in a directory holding only BENCHMARK.json and perfbench/,
exits non-zero without printing a result.

    python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys

from run import BUILD, ROOT, WORKLOADS, build, run_driver

TINY = ["--tiny"]


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    for spec in specs:
        name = spec["name"]
        check(name in metrics, f"{what}: metric {name} not printed")
        check(metrics[name]["unit"] == spec["unit"],
              f"{what}: {name} has unit {metrics[name]['unit']}, "
              f"expected {spec['unit']}")
        value = metrics[name]["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{what}: {name} is not a finite number")


def corrupt(path):
    """Flips the last hex digit of the first pinned digest."""
    lines = path.read_text().splitlines()
    ident, digest = lines[0].split()
    flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    lines[0] = f"{ident} {flipped}"
    path.write_text("\n".join(lines) + "\n")


def check_bare_directory():
    """Without the simulator sources the benchmark must fail cleanly."""
    bare = BUILD / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    check(proc.returncode != 0, "bare directory: run.py exited 0")
    check(proc.stdout.strip() == "",
          "bare directory: run.py printed a result")
    shutil.rmtree(bare)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    scratch = BUILD / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS:
        ref = scratch / f"{w}.txt"
        clean = run_driver(w, 1, 1, False,
                           extra=TINY + ["--write-reference", str(ref)])
        check(clean["correct"] and clean["failed"] == 0
              and clean["attempted"] > 0, f"{w}: clean run failed")
        check_metrics(clean, bench["end_to_end"], w)

        traced = run_driver(w, 1, 1, True, extra=TINY)
        check_metrics(traced, bench["per_layer"], f"{w} (traced)")

        corrupt(ref)
        bad = run_driver(w, 1, 1, False, extra=TINY + ["--reference", str(ref)])
        check(not bad["correct"] and bad["failed"] > 0,
              f"{w}: a corrupted digest did not fail the run")
        print(f"selftest: {w} ok (failed_frac with a corrupted digest "
              f"{bad['failed'] / bad['attempted']:.3g})", flush=True)
    check_bare_directory()
    print("selftest: bare directory ok")
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
