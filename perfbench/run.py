#!/usr/bin/env python3
"""End-to-end benchmark of the IMPACT simulator.

Builds the benchmark driver (perfbench/driver, linked against the simulator
library built from src/) in Release into .bench_build/perfbench, runs one
workload for a fixed host-time budget and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload graph_replay --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, sim_ops_per_s, setup_s,
peak_rss_mb, paper_err_pct); --trace 1 is a separate traced run that prints
the per-layer metrics and trace.overhead_pct, and writes its host-time spans
to .bench_build/perfbench/spans-<workload>.json. --workload all runs every
workload in turn and prints their metrics prefixed with the workload name.
On the default seed every simulated result is also checked against the
digests pinned in perfbench/reference/; --pin rewrites those digests
instead (default seed only, after a change that is meant to move simulated
results).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DEFAULT_SEED = 1
# A run may overshoot its budget by one pass and, traced, by the exec/store
# sweep after its passes; this is the margin the driver gets for that.
OVERRUN_S = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr.
    The compiler's temporary files stay inside the build directory too."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))


def driver_env():
    """The environment without the simulator's own switches: the protocol
    checker, thread count, fault profile and result store stay at their
    defaults, as in a plain Release run."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IMPACT_") and not k.startswith("CTEST")}
    env.pop("DASHBOARD_TEST_FROM_CTEST", None)
    return env


def run_driver(workload, seed, seconds, trace, extra=(), pin=False):
    """Runs the driver once; returns its parsed result line."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           *extra]
    reference = HERE / "reference" / f"{workload}.txt"
    if pin:
        cmd += ["--write-reference", str(reference)]
    elif seed == DEFAULT_SEED and "--tiny" not in extra:
        cmd += ["--reference", str(reference)]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=driver_env(), timeout=seconds + OVERRUN_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: driver printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"],
                    help="host-time budget of a run (the driver checks "
                         "its range)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the pinned digests of the default seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error(f"--pin needs the default seed {DEFAULT_SEED}")

    try:
        build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_driver(w, args.seed, args.seconds, args.trace,
                                 pin=args.pin)
                   for w in names}
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1

    if args.workload != "all":
        out = results[args.workload]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    for w, r in results.items():
        log(f"{w}: failed_frac {r['failed'] / r['attempted']:.6g} "
            f"({r['failed']} of {r['attempted']} operations)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
