// Experiment-cache effectiveness on the Fig. 11 defense grid: the same
// (workload x policy) matrix evaluated cold (every cell simulates) and
// warm (every cell replays from the store::ResultCache), with the warm
// results checked bit-for-bit against the cold reference — serially and
// across thread pools.
//
//   $ impact run store             # full Fig. 11 scale
//   $ impact run store --smoke     # reduced scale (CI-friendly)
//   $ IMPACT_STORE_VERIFY=1 impact run store  # warm runs re-simulate + audit
//
// The cache here is deliberately in-memory and private to this process
// (IMPACT_STORE_DIR is ignored): the benchmark times lookup-vs-simulate,
// and a pre-warmed disk directory would corrupt the cold baseline. The
// disk backend is exercised by tools/check.sh's store stage and
// tests/test_store.cpp instead. For the same reason this experiment
// builds its own caches/runners rather than using Context::runner().
//
// Prints a human-readable summary to stderr and one JSON object to stdout
// (consumed by tools/bench.sh when assembling BENCH_simulator.json).
// Harness-timing exception: reads host clocks (SIMLINT-ALLOW below);
// the measured seconds are reported, never fed into simulated state.
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"

namespace impact::lab {
namespace {

// SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  // SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
std::chrono::steady_clock::time_point bench_now() {
  // SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
  return std::chrono::steady_clock::now();
}

constexpr dram::RowPolicy kStorePolicies[] = {
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
    for (std::size_t p = 0; p < std::size(kStorePolicies); ++p) {
      const store::Record rec{
          store::matrix_cell_fingerprint(config, graph::kAllWorkloads[w],
                                         kStorePolicies[p]),
          "cell", store::encode(grid.cells[w][p].stats),
          grid.cells[w][p].snapshot};
      all += store::serialize(rec);
    }
  }
  return all;
}

int run_store(Context& ctx) {
  const bool smoke = ctx.smoke();

  graph::MultiprogConfig config;
  if (smoke) {
    // Same shape, 8x smaller input (and hierarchy, to stay in the
    // conflict-bound regime) — seconds instead of tens of seconds.
    config.rmat_scale = 12;
    config.edge_count = 32768;
    config.system.cache_scale = 512;
  }

  // Private in-memory cache (see header comment); verify still honours
  // the environment so the paranoid mode can be smoke-tested.
  store::ResultCache::Options options;
  options.verify = store::ResultCache::options_from_env().verify;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;

  const std::size_t cells =
      std::size(graph::kAllWorkloads) * std::size(kStorePolicies);
  std::fprintf(stderr,
               "bench_store: Fig. 11 matrix (%zu workloads x %zu policies = "
               "%zu cells), %s scale%s\n",
               std::size(graph::kAllWorkloads), std::size(kStorePolicies),
               cells, smoke ? "smoke" : "full",
               options.verify ? ", VERIFY mode (warm runs re-simulate)" : "");

  // Phase 1: cold — every cell simulates, results are published.
  store::CellRunner cold_runner(cache, workloads, nullptr);
  const auto t_cold = bench_now();
  const auto cold =
      cold_runner.defense_matrix(config, graph::kAllWorkloads, kStorePolicies);
  const double cold_s = seconds_since(t_cold);
  if (!cold.ok()) {
    std::fprintf(stderr, "cold sweep failed: %s\n",
                 cold.report.summary().c_str());
    return 1;
  }
  const std::string reference = grid_bytes(config, cold);

  // Phase 2: warm serial — the same grid again; with the store enabled
  // and verify off, every cell is a lookup.
  store::CellRunner warm_runner(cache, workloads, nullptr);
  const auto t_warm = bench_now();
  const auto warm =
      warm_runner.defense_matrix(config, graph::kAllWorkloads, kStorePolicies);
  const double warm_s = seconds_since(t_warm);
  bool identical = warm.ok() && grid_bytes(config, warm) == reference;
  const std::size_t warm_hits = warm.report.cache_hits;

  // Phase 3: warm parallel — cache probes and publishes race from worker
  // threads; results must not care.
  std::vector<double> pool_seconds;
  for (const unsigned threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    store::CellRunner pool_runner(cache, workloads, &pool);
    const auto t0 = bench_now();
    const auto result = pool_runner.defense_matrix(
        config, graph::kAllWorkloads, kStorePolicies);
    pool_seconds.push_back(seconds_since(t0));
    identical =
        identical && result.ok() && grid_bytes(config, result) == reference;
  }

  // Hits over all cache-aware tasks: the policy cells plus the per-workload
  // input builds (a fully-warm grid probe-skips those too).
  const double hit_rate = static_cast<double>(warm_hits) /
                          static_cast<double>(warm.report.tasks);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

  std::fprintf(stderr,
               "cold %.3fs  warm %.4fs (hit rate %.0f%%)  warm pool2 %.4fs  "
               "warm pool8 %.4fs  speedup %.1fx  cells %s\n",
               cold_s, warm_s, 100.0 * hit_rate, pool_seconds[0],
               pool_seconds[1], speedup,
               identical ? "bit-identical" : "MISMATCH");

  std::printf(
      "{\"bench\":\"store\",\"smoke\":%s,\"cells\":%zu,"
      "\"cold_seconds\":%.4f,\"warm_seconds\":%.4f,"
      "\"warm_pool2_seconds\":%.4f,\"warm_pool8_seconds\":%.4f,"
      "\"speedup\":%.4f,\"hit_rate\":%.4f,"
      "\"verify\":%s,\"cells_identical\":%s}\n",
      smoke ? "true" : "false", cells, cold_s, warm_s, pool_seconds[0],
      pool_seconds[1], speedup, hit_rate, options.verify ? "true" : "false",
      identical ? "true" : "false");

  return identical ? 0 : 1;
}

}  // namespace

void register_store(Registry& r) {
  ExperimentSpec spec;
  spec.name = "store";
  spec.description =
      "Result-cache effectiveness on the Fig. 11 grid: cold vs warm, "
      "serial and across thread pools";
  spec.kind = Kind::kPerf;
  // The role doubles as this experiment's key in BENCH_simulator.json
  // (tools/bench.sh discovers it from `impact list --json`).
  spec.bench_role = "bench_store";
  spec.cell_count = [](const Context&) {
    return std::size(graph::kAllWorkloads) * std::size(kStorePolicies);
  };
  spec.run = run_store;
  r.add(std::move(spec));
}

}  // namespace impact::lab
