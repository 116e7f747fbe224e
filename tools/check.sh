#!/usr/bin/env bash
# The repo's one-command correctness gate:
#
#   0. simlint (tools/simlint): layering, determinism, concurrency, seam,
#      and hot-path invariants over src/ against the committed baseline,
#      plus the determinism + driver-include rules over apps/ (the driver
#      TU must be a thin shim over src/lab/) — the cheapest stage, so it
#      runs first (docs/static-analysis.md),
#   1. clang-tidy over src/ (.clang-tidy profile, warnings-as-errors),
#   2. an ASan+UBSan build with -Werror of every target,
#   3. the full ctest suite under the sanitizers with IMPACT_CHECK=1,
#   3b. the same suite again with IMPACT_FAULTS=heavy: fault-aware tests
#      layer the heavy fault profile onto their scenarios and must still
#      recover; everything else must be unaffected (injection is opt-in),
#   4. a ThreadSanitizer build + the exec-engine and store tests, the
#      graph tests of the concurrent front end, and the tests of the
#      shared-input intern tables, under it (TSan and ASan cannot share a
#      binary, so this is a separate build tree),
#   5. obs spine: `impact run quickstart --trace` JSON validation
#      (dram/pim/channel spans present, events well-formed),
#   6. experiment store: a cold->warm->warm cycle of `impact run fig11`
#      through an on-disk store::ResultCache — warm output must be
#      byte-identical with a 100% hit rate, and an IMPACT_STORE_VERIFY=1
#      re-simulation audit must pass (docs/performance.md, "Experiment
#      cache"),
#   6b. crash/resume: `impact run fig11` is SIGKILLed mid-grid with an
#      on-disk store (IMPACT_STORE_DIR), then re-invoked on the same store;
#      the rerun must be byte-identical to an uninterrupted reference
#      (docs/robustness.md, "Durability and recoverable input"),
#   6c. experiment registry: `impact list` must enumerate exactly the 22
#      registered experiments and `impact describe` must resolve a spec
#      (docs/experiments-registry.md); `impact run fig11`, `impact run
#      ablation_sweep --smoke` and `impact run fig8 --smoke` must print the
#      same stdout at --threads 1 and --threads 4,
#   7. tools/bench.sh --smoke: fails on >20% items/sec regression against
#      the committed BENCH_simulator.json baseline.
#
# Exits non-zero if any stage fails and prints a per-stage summary. Stages
# whose tooling is absent (no clang-tidy on the box) are reported as SKIP
# without failing the gate, so the script is usable both on dev machines
# and minimal CI images.
#
# Usage: tools/check.sh [build-dir]      (default: build-check)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build-check}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

declare -A STATUS
FAILED=0

stage() { # name exit_code
  if [ "$2" -eq 0 ]; then
    STATUS[$1]="PASS"
  else
    STATUS[$1]="FAIL"
    FAILED=1
  fi
}

echo "== impact check: root=${ROOT} build=${BUILD_DIR} jobs=${JOBS}"

# --- Stage 0: simlint (project-specific static analyzer) ----------------
# Layering/determinism/concurrency/seam/hot-path violations fail in
# seconds, before any sanitizer build. Shares the plain build tree with
# clang-tidy: the analyzer itself must not be sanitizer-instrumented.
TIDY_DIR="${ROOT}/build-tidy"
cmake -S "${ROOT}" -B "${TIDY_DIR}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  > /dev/null \
  && cmake --build "${TIDY_DIR}" -j "${JOBS}" --target simlint_tool \
  > /dev/null
rc=$?
if [ $rc -eq 0 ]; then
  "${TIDY_DIR}/tools/simlint/simlint" \
      --root "${ROOT}/src" \
      --baseline "${ROOT}/tools/simlint/baseline.txt" \
  && "${TIDY_DIR}/tools/simlint/simlint" \
      --root "${ROOT}/apps" \
      --rules "nondet-seed,nondet-random-device,nondet-rand,global-state,thread-local,driver-include"
  rc=$?
fi
stage lint $rc

# --- Stage 1: clang-tidy ------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compile database from a plain (uninstrumented)
  # configure; sanitizer flags would be fed to the clang frontend otherwise.
  TIDY_DIR="${ROOT}/build-tidy"
  cmake -S "${ROOT}" -B "${TIDY_DIR}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    > /dev/null
  rc=$?
  if [ $rc -eq 0 ]; then
    mapfile -t TIDY_SOURCES < <(find "${ROOT}/src" -name '*.cpp' | sort)
    clang-tidy -p "${TIDY_DIR}" --quiet "${TIDY_SOURCES[@]}"
    rc=$?
  fi
  stage clang-tidy $rc
else
  echo "-- clang-tidy not found; skipping static analysis stage"
  STATUS[clang-tidy]="SKIP (not installed)"
fi

# --- Stage 2: sanitizer build (ASan+UBSan, -Werror) ---------------------
cmake -S "${ROOT}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMPACT_SANITIZE="address;undefined" \
  -DIMPACT_WERROR=ON \
  > /dev/null \
  && cmake --build "${BUILD_DIR}" -j "${JOBS}"
stage sanitizer-build $?

# --- Stage 3: ctest under the sanitizers --------------------------------
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  ( cd "${BUILD_DIR}" \
    && IMPACT_CHECK=1 \
       ASAN_OPTIONS=detect_leaks=1 \
       UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
       ctest --output-on-failure -j "${JOBS}" )
  stage ctest $?
else
  STATUS[ctest]="SKIP (build failed)"
  FAILED=1
fi

# --- Stage 3b: the suite under an ambient fault profile -----------------
# IMPACT_FAULTS=heavy makes the fault-aware tests layer the heavy profile
# onto their own scenarios (src/fault/injector.hpp: profile_from_env); the
# rest of the suite must be unaffected — fault injection is opt-in per
# system, never ambient, and this stage proves the suite stays green when
# the env knob is set globally.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  ( cd "${BUILD_DIR}" \
    && IMPACT_FAULTS=heavy \
       IMPACT_CHECK=1 \
       ASAN_OPTIONS=detect_leaks=1 \
       UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
       ctest --output-on-failure -j "${JOBS}" )
  stage fault $?
else
  STATUS[fault]="SKIP (build failed)"
  FAILED=1
fi

# --- Stage 4: TSan over the concurrent code -----------------------------
# The concurrent code is the thread pool and sweep scheduler (test_exec),
# the graph front-end memo that a store::CellRunner pool's workers share
# (test_store), and the graph front end, which records the two
# co-scheduled instances on two threads (test_graph: the inline-vs-threaded
# and error-propagation tests, FrontEndSplit's BC and TC cases under one
# mapping, the hand-built edge cases and Multiprog), and the intern tables
# that share the figure inputs between live users (test_util: four threads
# acquiring one key; test_attacks_side: Fig. 10's spies built on a pool,
# and run on one, sharing the victim's mapping; test_graph: inputs sharing
# one graph). Running them under
# ThreadSanitizer catches ordering bugs the serial suite cannot. Separate
# build tree: TSan excludes ASan.
TSAN_DIR="${ROOT}/build-tsan"
TSAN_GRAPH_FILTER='ConcurrentFrontEnd.*:FrontEndSplitEdges.*:Multiprog.*'
TSAN_GRAPH_FILTER+=':SmallInputs/FrontEndSplit.*/BC_bank_interleaved'
TSAN_GRAPH_FILTER+=':SmallInputs/FrontEndSplit.*/TC_bank_interleaved'
TSAN_GRAPH_FILTER+=':SharedGraph.*'
TSAN_UTIL_FILTER='InternTable.*'
TSAN_SIDE_FILTER='SharedReference.SpiesBuiltOnAPoolShareOneBuild'
TSAN_SIDE_FILTER+=':VictimPlan.SpiesRunOnAPoolShareOneMapping'
cmake -S "${ROOT}" -B "${TSAN_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMPACT_SANITIZE=thread \
  > /dev/null \
  && cmake --build "${TSAN_DIR}" -j "${JOBS}" \
       --target test_exec test_store test_graph test_util test_attacks_side
if [ $? -eq 0 ]; then
  ( cd "${TSAN_DIR}" \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ctest -R '^test_(exec|store)$' --output-on-failure \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ./tests/test_graph --gtest_filter="${TSAN_GRAPH_FILTER}" \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ./tests/test_util --gtest_filter="${TSAN_UTIL_FILTER}" \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ./tests/test_attacks_side --gtest_filter="${TSAN_SIDE_FILTER}" )
  stage tsan $?
else
  STATUS[tsan]="FAIL (build)"
  FAILED=1
fi

# --- Stage 5: obs spine (trace validation) -----------------------------
# In the sanitizer build, `impact run quickstart --trace` must export
# Chrome trace JSON that parses and carries spans from the dram, pim, and
# channel layers — the end-to-end acceptance of the spine.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  OBS_TMP="$(mktemp -d)"
  TRACE_JSON="${OBS_TMP}/quickstart_trace.json"
  "${BUILD_DIR}/apps/impact" run quickstart --trace "${TRACE_JSON}" \
      > /dev/null \
    && TRACE_JSON="${TRACE_JSON}" python3 - <<'EOF'
import json
import os
import sys

with open(os.environ["TRACE_JSON"]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
cats = {e["cat"] for e in events}
missing = {"dram", "pim", "channel"} - cats
if not events:
    print("obs: trace has no events", file=sys.stderr)
    sys.exit(1)
if missing:
    print(f"obs: trace missing layer spans: {sorted(missing)}",
          file=sys.stderr)
    sys.exit(1)
for e in events:
    if e["ph"] not in ("X", "i") or "ts" not in e or "name" not in e:
        print(f"obs: malformed event: {e}", file=sys.stderr)
        sys.exit(1)
print(f"obs: trace ok ({len(events)} events, layers {sorted(cats)})")
EOF
  rc=$?
  rm -rf "${OBS_TMP}"
  stage obs $rc
else
  STATUS[obs]="SKIP (build failed)"
  FAILED=1
fi

# --- Stage 6: experiment store (content-addressed cache) ----------------
# End-to-end acceptance of src/store/ against a real experiment: `impact
# run fig11` runs cold into a fresh on-disk cache, then warm from it. The warm run
# must produce byte-identical stdout, miss nothing, and survive the
# IMPACT_STORE_VERIFY=1 re-simulation audit (which aborts on divergence).
# Uses the sanitizer build: cache probe/publish race from sweep workers,
# so this doubles as a data-race check on the store's locking.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  STORE_DIR="$(mktemp -d)"
  STORE_OUT="$(mktemp -d)"
  rc=0
  IMPACT_STORE_DIR="${STORE_DIR}" "${BUILD_DIR}/apps/impact" run fig11       > "${STORE_OUT}/cold.txt" 2> "${STORE_OUT}/cold.err" || rc=1
  if [ $rc -eq 0 ]; then
    IMPACT_STORE_DIR="${STORE_DIR}" "${BUILD_DIR}/apps/impact" run fig11         > "${STORE_OUT}/warm.txt" 2> "${STORE_OUT}/warm.err" || rc=1
  fi
  if [ $rc -eq 0 ]       && ! cmp -s "${STORE_OUT}/cold.txt" "${STORE_OUT}/warm.txt"; then
    echo "store: warm fig11 output differs from cold" >&2
    diff "${STORE_OUT}/cold.txt" "${STORE_OUT}/warm.txt" | head -20 >&2
    rc=1
  fi
  if [ $rc -eq 0 ] && ! grep -q ", 0 misses," "${STORE_OUT}/warm.err"; then
    echo "store: warm run was not fully cached:" >&2
    grep "^store:" "${STORE_OUT}/warm.err" >&2
    rc=1
  fi
  if [ $rc -eq 0 ]; then
    # Paranoid audit: every hit re-simulated and byte-compared; any
    # divergence aborts the binary (and fails this stage).
    IMPACT_STORE_DIR="${STORE_DIR}" IMPACT_STORE_VERIFY=1         "${BUILD_DIR}/apps/impact" run fig11         > "${STORE_OUT}/verify.txt" 2> /dev/null || rc=1
    if [ $rc -eq 0 ]         && ! cmp -s "${STORE_OUT}/cold.txt" "${STORE_OUT}/verify.txt"; then
      echo "store: VERIFY re-simulation output differs from cold" >&2
      rc=1
    fi
  fi
  [ $rc -eq 0 ] && echo "store: cold/warm byte-identical, fully cached,"       "verify audit passed"
  rm -rf "${STORE_DIR}" "${STORE_OUT}"
  stage store $rc
else
  echo "store: skipped (sanitizer build failed)" >&2
fi

# --- Stage 6b: crash/resume (store-only) --------------------------------
# End-to-end acceptance of resuming through the on-disk store::ResultCache
# against a real experiment: `impact run fig11` starts cold into a fresh
# store and is SIGKILLed mid-grid; a second invocation with the same IMPACT_STORE_DIR
# must hit the records that survived the kill, simulate the rest, and print
# stdout byte-identical to an uninterrupted reference run. When the kill
# lands after the grid already finished the rerun is a plain warm cache
# run — still byte-identical, so the comparison is stable either way.
# IMPACT_THREADS is pinned so every run of the stage uses the same pool.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  RESUME_TMP="$(mktemp -d)"
  rc=0
  IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/ref-store" \
    "${BUILD_DIR}/apps/impact" run fig11 \
    > "${RESUME_TMP}/ref.txt" 2> /dev/null || rc=1
  if [ $rc -eq 0 ]; then
    IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/store" \
      "${BUILD_DIR}/apps/impact" run fig11 \
      > "${RESUME_TMP}/killed.txt" 2> /dev/null &
    RESUME_PID=$!
    sleep 3
    kill -9 "${RESUME_PID}" 2> /dev/null
    wait "${RESUME_PID}" 2> /dev/null
    SURVIVED="$(find "${RESUME_TMP}/store" -name '*.rec' 2> /dev/null \
      | wc -l)"
    echo "resume: ${SURVIVED} .rec files survived the kill"
    IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/store" \
      "${BUILD_DIR}/apps/impact" run fig11 \
      > "${RESUME_TMP}/rerun.txt" 2> /dev/null || rc=1
  fi
  if [ $rc -eq 0 ] \
      && ! cmp -s "${RESUME_TMP}/ref.txt" "${RESUME_TMP}/rerun.txt"; then
    echo "resume: rerun fig11 stdout differs from uninterrupted" >&2
    diff "${RESUME_TMP}/ref.txt" "${RESUME_TMP}/rerun.txt" | head -20 >&2
    rc=1
  fi
  [ $rc -eq 0 ] && echo "resume: killed/rerun fig11 byte-identical" \
    "to uninterrupted reference"
  rm -rf "${RESUME_TMP}"
  stage resume $rc
else
  echo "resume: skipped (sanitizer build failed)" >&2
fi

# --- Stage 6c: experiment registry (impact list / describe) -------------
# `impact run` is the one entry point; its catalogue must list exactly the
# registered experiments, and describe must resolve a spec. The two grid
# experiments with a worker pool must print the same stdout at 1 and 4
# threads: the worker count goes to stderr only. So must fig8, whose cells
# build a system per attack kind, some of which never build a cache
# hierarchy (it is built on an actor's first CPU-side access).
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  IMPACT_BIN="${BUILD_DIR}/apps/impact"
  LAB_TMP="$(mktemp -d)"
  rc=0
  "${IMPACT_BIN}" list > "${LAB_TMP}/list.txt" || rc=1
  if [ $rc -eq 0 ] && [ "$(wc -l < "${LAB_TMP}/list.txt")" -ne 22 ]; then
    echo "lab: impact list enumerated $(wc -l < "${LAB_TMP}/list.txt")" \
      "experiments, expected 22" >&2
    rc=1
  fi
  if [ $rc -eq 0 ]; then
    "${IMPACT_BIN}" describe fig11 > /dev/null || rc=1
  fi
  for run in "fig11" "ablation_sweep --smoke" "fig8 --smoke"; do
    [ $rc -eq 0 ] || break
    for threads in 1 4; do
      # shellcheck disable=SC2086  # $run is the name plus its flags.
      IMPACT_STORE=0 "${IMPACT_BIN}" run ${run} --threads "${threads}" \
        > "${LAB_TMP}/threads${threads}.txt" 2> /dev/null || rc=1
    done
    if [ $rc -eq 0 ] \
        && ! cmp -s "${LAB_TMP}/threads1.txt" "${LAB_TMP}/threads4.txt"; then
      echo "lab: impact run ${run} stdout differs between 1 and 4" \
        "threads" >&2
      diff "${LAB_TMP}/threads1.txt" "${LAB_TMP}/threads4.txt" | head -20 >&2
      rc=1
    fi
  done
  [ $rc -eq 0 ] && echo "lab: list enumerates 22 experiments; describe ok;" \
    "fig11, ablation_sweep and fig8 stdout identical at 1 and 4 threads"
  rm -rf "${LAB_TMP}"
  stage lab $rc
else
  echo "lab: skipped (sanitizer build failed)" >&2
fi

# --- Stage 7: benchmark smoke (throughput regression gate) --------------
# Covers every microbench in BENCH_simulator.json; BM_MultiprogReplay (the
# Fig. 11 replay bench) is additionally required to be present — bench.sh
# fails the gate when it goes missing.
# This container only has the Debug system libbenchmark (no benchmark
# source tree to build Release via IMPACT_BENCHMARK_SOURCE_DIR), so opt
# in to smoking against the debug-library baseline; bench.sh still
# refuses if the baseline and the current library flavor disagree.
IMPACT_BENCH_ALLOW_DEBUG_LIBRARY=1   "${ROOT}/tools/bench.sh" --smoke "${ROOT}/build-bench"
stage bench-smoke $?

# --- Summary ------------------------------------------------------------
echo
echo "== check summary"
for s in lint clang-tidy sanitizer-build ctest fault tsan obs store \
         resume lab bench-smoke; do
  printf '   %-16s %s\n' "$s" "${STATUS[$s]:-SKIP}"
done
exit $FAILED
