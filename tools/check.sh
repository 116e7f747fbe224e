#!/usr/bin/env bash
# The repo's one-command correctness gate:
#
#   0. simlint (tools/simlint): layering, determinism, concurrency, seam,
#      and hot-path invariants over src/ against the committed baseline,
#      plus the determinism + driver-include rules over bench/, examples/,
#      and apps/ (driver TUs must be thin shims over src/lab/) — the
#      cheapest stage, so it runs first (docs/static-analysis.md),
#   1. clang-tidy over src/ (.clang-tidy profile, warnings-as-errors),
#   2. an ASan+UBSan build with -Werror of every target,
#   3. the full ctest suite under the sanitizers with IMPACT_CHECK=1,
#   3b. the same suite again with IMPACT_FAULTS=heavy: fault-aware tests
#      layer the heavy fault profile onto their scenarios and must still
#      recover; everything else must be unaffected (injection is opt-in),
#   4. a ThreadSanitizer build + the exec-engine and store tests, and the
#      graph tests of the concurrent front end, under it (TSan and ASan
#      cannot share a binary, so this is a separate build tree),
#   5. obs spine: a -DIMPACT_OBS=OFF build + full ctest (the telemetry
#      spine must compile away cleanly), then quickstart --trace JSON
#      validation (dram/pim/channel spans present, events well-formed),
#   6. experiment store: a cold->warm->warm cycle of bench_fig11 through
#      an on-disk store::ResultCache — warm output must be byte-identical
#      with a 100% hit rate, and an IMPACT_STORE_VERIFY=1 re-simulation
#      audit must pass (docs/performance.md, "Experiment cache"),
#   6b. crash/resume: bench_fig11 is SIGKILLed mid-grid with an on-disk
#      store + IMPACT_JOURNAL, then re-invoked; the resumed run must be
#      byte-identical to an uninterrupted reference (docs/robustness.md,
#      "Checkpoint/resume"),
#   6c. experiment registry: `impact list` must enumerate a non-empty
#      registry, `impact describe` must resolve a spec, and `impact run`
#      must be byte-identical to the corresponding thin-shim binaries
#      (docs/experiments-registry.md),
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
      --root "${ROOT}/bench" --root "${ROOT}/examples" --root "${ROOT}/apps" \
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
# mapping, the hand-built edge cases and Multiprog). Running them under
# ThreadSanitizer catches ordering bugs the serial suite cannot. Separate
# build tree: TSan excludes ASan.
TSAN_DIR="${ROOT}/build-tsan"
TSAN_GRAPH_FILTER='ConcurrentFrontEnd.*:FrontEndSplitEdges.*:Multiprog.*'
TSAN_GRAPH_FILTER+=':SmallInputs/FrontEndSplit.*/BC_bank_interleaved'
TSAN_GRAPH_FILTER+=':SmallInputs/FrontEndSplit.*/TC_bank_interleaved'
cmake -S "${ROOT}" -B "${TSAN_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMPACT_SANITIZE=thread \
  > /dev/null \
  && cmake --build "${TSAN_DIR}" -j "${JOBS}" \
       --target test_exec test_store test_graph
if [ $? -eq 0 ]; then
  ( cd "${TSAN_DIR}" \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ctest -R '^test_(exec|store)$' --output-on-failure \
    && IMPACT_CHECK=1 \
       TSAN_OPTIONS=halt_on_error=1 \
       ./tests/test_graph --gtest_filter="${TSAN_GRAPH_FILTER}" )
  stage tsan $?
else
  STATUS[tsan]="FAIL (build)"
  FAILED=1
fi

# --- Stage 5: obs spine (compile-out build + trace validation) ----------
# Two halves. (a) -DIMPACT_OBS=OFF: the whole telemetry spine must compile
# away cleanly and the full suite must still pass (scope-mediated obs tests
# skip themselves). (b) In the sanitizer build, quickstart --trace must
# export Chrome trace JSON that parses and carries spans from the dram,
# pim, and channel layers — the end-to-end acceptance of the spine.
OBS_DIR="${ROOT}/build-noobs"
cmake -S "${ROOT}" -B "${OBS_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMPACT_OBS=OFF \
  > /dev/null \
  && cmake --build "${OBS_DIR}" -j "${JOBS}"
rc=$?
if [ $rc -eq 0 ]; then
  ( cd "${OBS_DIR}" \
    && IMPACT_CHECK=1 ctest --output-on-failure -j "${JOBS}" )
  rc=$?
fi
if [ $rc -eq 0 ] && [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  TRACE_JSON="${OBS_DIR}/quickstart_trace.json"
  "${BUILD_DIR}/examples/quickstart" --trace "${TRACE_JSON}" > /dev/null \
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
fi
stage obs $rc

# --- Stage 6: experiment store (content-addressed cache) ----------------
# End-to-end acceptance of src/store/ against a real driver: bench_fig11
# runs cold into a fresh on-disk cache, then warm from it. The warm run
# must produce byte-identical stdout, miss nothing, and survive the
# IMPACT_STORE_VERIFY=1 re-simulation audit (which aborts on divergence).
# Uses the sanitizer build: cache probe/publish race from sweep workers,
# so this doubles as a data-race check on the store's locking.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  STORE_DIR="$(mktemp -d)"
  STORE_OUT="$(mktemp -d)"
  rc=0
  IMPACT_STORE_DIR="${STORE_DIR}" "${BUILD_DIR}/bench/bench_fig11"       > "${STORE_OUT}/cold.txt" 2> "${STORE_OUT}/cold.err" || rc=1
  if [ $rc -eq 0 ]; then
    IMPACT_STORE_DIR="${STORE_DIR}" "${BUILD_DIR}/bench/bench_fig11"         > "${STORE_OUT}/warm.txt" 2> "${STORE_OUT}/warm.err" || rc=1
  fi
  if [ $rc -eq 0 ]       && ! cmp -s "${STORE_OUT}/cold.txt" "${STORE_OUT}/warm.txt"; then
    echo "store: warm bench_fig11 output differs from cold" >&2
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
    IMPACT_STORE_DIR="${STORE_DIR}" IMPACT_STORE_VERIFY=1         "${BUILD_DIR}/bench/bench_fig11"         > "${STORE_OUT}/verify.txt" 2> /dev/null || rc=1
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

# --- Stage 6b: crash/resume (journal-backed checkpointing) --------------
# End-to-end acceptance of src/resil/ against a real driver: bench_fig11
# starts cold into a fresh on-disk store + journal and is SIGKILLed
# mid-grid; a second invocation with the same env must resume from the
# journal and finish, with stdout byte-identical to an uninterrupted
# reference run. When the kill lands after the grid already finished the
# resume degrades to a warm cache run — still byte-identical, so the
# comparison is stable either way. IMPACT_THREADS is pinned: the printed
# header includes the worker count.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  RESUME_TMP="$(mktemp -d)"
  rc=0
  IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/ref-store" \
    IMPACT_JOURNAL="${RESUME_TMP}/ref.journal" \
    "${BUILD_DIR}/bench/bench_fig11" \
    > "${RESUME_TMP}/ref.txt" 2> /dev/null || rc=1
  if [ $rc -eq 0 ]; then
    IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/store" \
      IMPACT_JOURNAL="${RESUME_TMP}/run.journal" \
      "${BUILD_DIR}/bench/bench_fig11" \
      > "${RESUME_TMP}/killed.txt" 2> /dev/null &
    RESUME_PID=$!
    sleep 3
    kill -9 "${RESUME_PID}" 2> /dev/null
    wait "${RESUME_PID}" 2> /dev/null
    IMPACT_THREADS=2 IMPACT_STORE_DIR="${RESUME_TMP}/store" \
      IMPACT_JOURNAL="${RESUME_TMP}/run.journal" \
      "${BUILD_DIR}/bench/bench_fig11" \
      > "${RESUME_TMP}/resumed.txt" 2> "${RESUME_TMP}/resumed.err" || rc=1
  fi
  if [ $rc -eq 0 ] \
      && ! cmp -s "${RESUME_TMP}/ref.txt" "${RESUME_TMP}/resumed.txt"; then
    echo "resume: resumed bench_fig11 stdout differs from uninterrupted" >&2
    diff "${RESUME_TMP}/ref.txt" "${RESUME_TMP}/resumed.txt" | head -20 >&2
    rc=1
  fi
  if [ $rc -eq 0 ]; then
    if grep -q "resil: journal" "${RESUME_TMP}/resumed.err"; then
      echo "resume: $(grep "resil: journal" "${RESUME_TMP}/resumed.err" \
        | head -1)"
    else
      echo "resume: kill landed after completion (warm-run degradation)"
    fi
    echo "resume: killed/resumed bench_fig11 byte-identical to" \
      "uninterrupted reference"
  fi
  rm -rf "${RESUME_TMP}"
  stage resume $rc
else
  echo "resume: skipped (sanitizer build failed)" >&2
fi

# --- Stage 6c: experiment registry (impact CLI vs thin shims) -----------
# The registry is the single source of truth for every driver; the shims
# and `impact run` must be two routes to the same experiment. Byte-compare
# one bench driver and one example through both routes (IMPACT_THREADS
# pinned: headers print the worker count), and exercise list/describe.
if [ "${STATUS[sanitizer-build]}" = "PASS" ]; then
  IMPACT_BIN="${BUILD_DIR}/apps/impact"
  LAB_TMP="$(mktemp -d)"
  rc=0
  "${IMPACT_BIN}" list > "${LAB_TMP}/list.txt" || rc=1
  if [ $rc -eq 0 ] && [ "$(wc -l < "${LAB_TMP}/list.txt")" -lt 26 ]; then
    echo "lab: impact list enumerated fewer than 26 experiments" >&2
    rc=1
  fi
  if [ $rc -eq 0 ]; then
    "${IMPACT_BIN}" describe fig11 > /dev/null || rc=1
  fi
  for pair in "rowbuffer:bench/bench_rowbuffer" \
              "rowclone_bulk_copy:examples/rowclone_bulk_copy"; do
    [ $rc -eq 0 ] || break
    name="${pair%%:*}"
    shim="${pair#*:}"
    IMPACT_THREADS=2 "${IMPACT_BIN}" run "${name}" --smoke \
      > "${LAB_TMP}/cli.txt" 2> /dev/null || rc=1
    IMPACT_THREADS=2 "${BUILD_DIR}/${shim}" --smoke \
      > "${LAB_TMP}/shim.txt" 2> /dev/null || rc=1
    if [ $rc -eq 0 ] \
        && ! cmp -s "${LAB_TMP}/cli.txt" "${LAB_TMP}/shim.txt"; then
      echo "lab: impact run ${name} differs from ${shim}" >&2
      diff "${LAB_TMP}/cli.txt" "${LAB_TMP}/shim.txt" | head -20 >&2
      rc=1
    fi
  done
  [ $rc -eq 0 ] && echo "lab: list/describe ok; impact run byte-identical" \
    "to shim binaries"
  rm -rf "${LAB_TMP}"
  stage lab $rc
else
  echo "lab: skipped (sanitizer build failed)" >&2
fi

# --- Stage 7: benchmark smoke (throughput regression gate) --------------
# Covers every microbench in BENCH_simulator.json; BM_AccessBatch and
# BM_MultiprogReplay (the batch-kernel benches) are additionally required
# to be present — bench.sh fails the gate when either goes missing.
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
