// Harness cost of the Fig. 11 defense grid (kAllWorkloads x open / closed
// / CTD / adaptive) run through store::CellRunner in four phases:
//
//   1. cold, serial, on a fresh in-memory ResultCache and WorkloadStore —
//      the reference every other phase is compared against;
//   2. cold on the context's pool, on a second fresh cache and store;
//   3. warm, serial, replaying from phase 2's cache;
//   4. warm on the pool, replaying from phase 2's cache.
//
// On a one-worker pool (--threads 1) phase 2 would only repeat phase 1,
// so it is skipped: the warm phases replay from phase 1's cache and the
// parallel fields print as null.
//
// Every phase must reproduce the reference's full record bytes (stats
// and per-cell snapshots), so one run checks the sweep engine's
// schedule-independence and the cache's replay fidelity together.
//
//   $ impact run grid_perf                  # full Fig. 11 scale
//   $ impact run grid_perf --smoke          # reduced scale (CI-friendly)
//   $ impact run grid_perf --threads 4
//   $ IMPACT_STORE_VERIFY=1 impact run grid_perf  # warm phases re-simulate
//
// The caches are deliberately in-memory and private to this process
// (IMPACT_STORE and IMPACT_STORE_DIR are ignored): a pre-warmed disk
// directory would corrupt the cold timings. The disk backend is exercised
// by tools/check.sh's store stage and tests/test_store.cpp instead. For
// the same reason this experiment builds its own caches and runners
// rather than using Context::runner().
//
// Prints a human-readable summary to stderr and one JSON object to stdout
// (consumed by tools/bench.sh when assembling BENCH_simulator.json).
// Harness-timing exception: reads host clocks (SIMLINT-ALLOW below); wall
// and CPU seconds are reported, never fed back into simulated state.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <optional>
#include <string>
#include <thread>

#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"

namespace impact::lab {
namespace {

// SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
std::chrono::steady_clock::time_point now() {
  // SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
  return std::chrono::steady_clock::now();
}

/// Process CPU seconds (all threads). The wall-vs-cpu ratio is the honesty
/// check on any claimed speedup: a parallel run that is truly using N
/// cores burns ~N CPU seconds per wall second, whereas on a 1-CPU
/// container the same code shows cpu ~= wall and the "speedup" is just
/// scheduling noise.
double process_cpu_seconds() {
  // SIMLINT-ALLOW(nondet-wallclock): benchmark harness timing.
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

constexpr dram::RowPolicy kGridPolicies[] = {
    dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
    dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive};

/// Canonical byte string of a whole grid result: every cell's record
/// (fingerprint, typed payload, telemetry snapshot) serialized in grid
/// order. Two grid evaluations are bit-identical iff these bytes match —
/// this is the same byte-stability the verify mode leans on.
std::string grid_bytes(const graph::MultiprogConfig& config,
                       const store::CellRunner::MatrixResult& grid) {
  std::string all;
  for (std::size_t w = 0; w < std::size(graph::kAllWorkloads); ++w) {
    for (std::size_t p = 0; p < std::size(kGridPolicies); ++p) {
      const store::Record rec{
          store::matrix_cell_fingerprint(config, graph::kAllWorkloads[w],
                                         kGridPolicies[p]),
          "cell", store::encode(grid.cells[w][p].stats),
          grid.cells[w][p].snapshot};
      all += store::serialize(rec);
    }
  }
  return all;
}

/// `value` as a JSON number, or null when its phase did not run.
std::string json_number(bool ran, double value) {
  if (!ran) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", value);
  return buf;
}

/// One timed evaluation of the grid on `pool` (null = serial).
struct Phase {
  store::CellRunner::MatrixResult grid;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

Phase timed_grid(const graph::MultiprogConfig& config,
                 store::ResultCache& cache, store::WorkloadStore& workloads,
                 exec::ThreadPool* pool) {
  store::CellRunner runner(cache, workloads, pool);
  Phase phase;
  const auto t0 = now();
  const double c0 = process_cpu_seconds();
  phase.grid =
      runner.defense_matrix(config, graph::kAllWorkloads, kGridPolicies);
  phase.cpu_seconds = process_cpu_seconds() - c0;
  phase.seconds = std::chrono::duration<double>(now() - t0).count();
  return phase;
}

int run_grid_perf(Context& ctx) {
  const bool smoke = ctx.smoke();

  graph::MultiprogConfig config;
  if (smoke) {
    // Same shape, 8x smaller input (and hierarchy, to stay in the
    // conflict-bound regime) — seconds instead of tens of seconds.
    config.rmat_scale = 12;
    config.edge_count = 32768;
    config.system.cache_scale = 512;
  }

  // Verify still honours the environment so the paranoid mode can be
  // smoke-tested; it only matters to the warm phases (a cold cache has
  // nothing to audit).
  store::ResultCache::Options options;
  options.verify = store::ResultCache::options_from_env().verify;

  exec::ThreadPool& pool = ctx.pool();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cells =
      std::size(graph::kAllWorkloads) * std::size(kGridPolicies);
  std::fprintf(stderr,
               "grid_perf: Fig. 11 matrix (%zu workloads x %zu policies = "
               "%zu cells), %s scale, pool=%u thread(s), hw=%u core(s)%s\n",
               std::size(graph::kAllWorkloads), std::size(kGridPolicies),
               cells, smoke ? "smoke" : "full", pool.size(), hw,
               options.verify ? ", VERIFY mode (warm runs re-simulate)" : "");

  // With a real pool, phase 1 gets its own cache and inputs, released
  // before phase 2 so the two cold runs never hold two sets of traces at
  // once; the warm phases replay from whichever cold phase ran last.
  Phase serial;
  std::optional<Phase> parallel;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;
  if (pool.size() > 1) {
    {
      store::ResultCache cold_cache(options);
      store::WorkloadStore cold_workloads;
      serial = timed_grid(config, cold_cache, cold_workloads, nullptr);
    }
    parallel = timed_grid(config, cache, workloads, &pool);
  } else {
    serial = timed_grid(config, cache, workloads, nullptr);
  }
  const Phase warm = timed_grid(config, cache, workloads, nullptr);
  const Phase warm_parallel = timed_grid(config, cache, workloads, &pool);

  const Phase* const par = parallel ? &*parallel : nullptr;

  const std::string reference = grid_bytes(config, serial.grid);
  bool identical = true;
  const Phase* const phases[] = {&serial, par, &warm, &warm_parallel};
  for (const Phase* phase : phases) {
    if (phase == nullptr) continue;
    if (!phase->grid.ok()) {
      std::fprintf(stderr, "grid failed: %s\n",
                   phase->grid.report.summary().c_str());
    }
    identical = identical && phase->grid.ok() &&
                grid_bytes(config, phase->grid) == reference;
  }

  const double speedup =
      par != nullptr && par->seconds > 0.0 ? serial.seconds / par->seconds
                                           : 0.0;
  // A wall-clock speedup is only a meaningful scaling claim when more than
  // one CPU was actually available to the process; on a 1-CPU container
  // the serial and parallel runs share one core and the ratio measures
  // scheduler noise. tools/bench.sh refuses to headline an invalid number.
  const bool scaling_valid = hw > 1 && pool.size() > 1;
  const double warm_speedup =
      warm.seconds > 0.0 ? serial.seconds / warm.seconds : 0.0;
  // Hits over all cache-aware tasks of both warm phases: the policy cells
  // plus the per-workload input builds (a fully-warm grid probe-skips
  // those too).
  const double hit_rate =
      static_cast<double>(warm.grid.report.cache_hits +
                          warm_parallel.grid.report.cache_hits) /
      static_cast<double>(warm.grid.report.tasks +
                          warm_parallel.grid.report.tasks);

  std::fprintf(stderr, "cold serial %.2fs (cpu %.2fs)  ", serial.seconds,
               serial.cpu_seconds);
  if (par != nullptr) {
    std::fprintf(stderr,
                 "cold parallel %.2fs (cpu %.2fs)  speedup %.2fx%s\n",
                 par->seconds, par->cpu_seconds, speedup,
                 scaling_valid ? "" : " [INVALID: single CPU]");
  } else {
    std::fprintf(stderr, "cold parallel skipped (one worker)\n");
  }
  std::fprintf(stderr,
               "warm serial %.4fs  warm parallel %.4fs (hit rate %.0f%%)  "
               "warm speedup %.1fx  cells %s\n",
               warm.seconds, warm_parallel.seconds, 100.0 * hit_rate,
               warm_speedup, identical ? "bit-identical" : "MISMATCH");

  std::printf(
      "{\"bench\":\"grid_perf\",\"smoke\":%s,\"cells\":%zu,\"threads\":%u,"
      "\"hardware_concurrency\":%u,"
      "\"serial_seconds\":%.4f,\"serial_cpu_seconds\":%.4f,"
      "\"parallel_seconds\":%s,\"parallel_cpu_seconds\":%s,"
      "\"speedup\":%s,\"scaling_valid\":%s,"
      "\"warm_seconds\":%.4f,\"warm_parallel_seconds\":%.4f,"
      "\"warm_speedup\":%.4f,\"hit_rate\":%.4f,"
      "\"verify\":%s,\"cells_identical\":%s}\n",
      smoke ? "true" : "false", cells, pool.size(), hw, serial.seconds,
      serial.cpu_seconds,
      json_number(par != nullptr, par ? par->seconds : 0.0).c_str(),
      json_number(par != nullptr, par ? par->cpu_seconds : 0.0).c_str(),
      json_number(par != nullptr, speedup).c_str(),
      scaling_valid ? "true" : "false", warm.seconds, warm_parallel.seconds,
      warm_speedup, hit_rate, options.verify ? "true" : "false",
      identical ? "true" : "false");

  return identical ? 0 : 1;
}

}  // namespace

void register_grid_perf(Registry& r) {
  ExperimentSpec spec;
  spec.name = "grid_perf";
  spec.description =
      "Harness cost of the Fig. 11 grid: cold serial, cold parallel and "
      "warm from the result cache, all checked bit-identical";
  spec.kind = Kind::kPerf;
  // The role doubles as this experiment's key in BENCH_simulator.json
  // (tools/bench.sh discovers it from `impact list --json`).
  spec.bench_role = "grid_perf";
  spec.cell_count = [](const Context&) {
    return std::size(graph::kAllWorkloads) * std::size(kGridPolicies);
  };
  spec.run = run_grid_perf;
  r.add(std::move(spec));
}

}  // namespace impact::lab
