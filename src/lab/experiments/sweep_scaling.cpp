// Wall-clock scaling of the sweep engine on the Fig. 11 defense matrix:
// the same grid evaluated serially and through a ThreadPool by
// store::CellRunner, with the per-cell RunStats checked bit-for-bit
// against the serial reference. Both phases run cold: each gets a
// disabled ResultCache and a fresh WorkloadStore, so every cell simulates
// and every input is built.
//
//   $ impact run sweep_scaling             # full Fig. 11 scale
//   $ impact run sweep_scaling --smoke     # reduced scale (CI-friendly)
//   $ IMPACT_THREADS=8 impact run sweep_scaling
//
// Prints a human-readable summary to stderr and one JSON object to stdout
// (consumed by tools/bench.sh when assembling BENCH_simulator.json).
//
// This experiment measures the harness itself, so it legitimately reads
// host clocks — the SIMLINT-ALLOW suppressions below are the documented
// exception to the nondet-wallclock/nondet-chrono-clock rules: wall and
// CPU seconds are reported, never fed back into simulated behavior.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <string>
#include <thread>

#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "util/json.hpp"

namespace impact::lab {
namespace {

// SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  // SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Process CPU seconds (all threads). The wall-vs-cpu ratio is the honesty
/// check on any claimed speedup: a parallel run that is truly using N
/// cores burns ~N CPU seconds per wall second, whereas on a 1-CPU
/// container the same code shows cpu ~= wall and the "speedup" is just
/// scheduling noise.
double cpu_seconds() {
  // SIMLINT-ALLOW(nondet-wallclock): benchmark harness timing.
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
std::chrono::steady_clock::time_point now() {
  // SIMLINT-ALLOW(nondet-chrono-clock): benchmark harness timing.
  return std::chrono::steady_clock::now();
}

constexpr dram::RowPolicy kScalingPolicies[] = {
    dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
    dram::RowPolicy::kConstantTime};

/// One cold evaluation of the grid on `pool` (null = serial).
store::CellRunner::MatrixResult cold_grid(const graph::MultiprogConfig& config,
                                          exec::ThreadPool* pool) {
  store::ResultCache::Options options;
  options.enabled = false;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;
  store::CellRunner runner(cache, workloads, pool);
  return runner.defense_matrix(config, graph::kAllWorkloads,
                               kScalingPolicies);
}

bool same_stats(const store::CellRunner::MatrixResult& a,
                const store::CellRunner::MatrixResult& b) {
  for (std::size_t w = 0; w < a.cells.size(); ++w) {
    for (std::size_t p = 0; p < a.cells[w].size(); ++p) {
      if (!(a.cells[w][p].stats == b.cells[w][p].stats)) return false;
    }
  }
  return true;
}

int run_sweep_scaling(Context& ctx) {
  const bool smoke = ctx.smoke();

  graph::MultiprogConfig config;
  if (smoke) {
    // Same shape, 8x smaller input (and hierarchy, to stay in the
    // conflict-bound regime) — seconds instead of tens of seconds.
    config.rmat_scale = 12;
    config.edge_count = 32768;
    config.system.cache_scale = 512;
  }

  exec::ThreadPool& pool = ctx.pool();
  std::fprintf(stderr,
               "bench_sweep_scaling: Fig. 11 matrix (%zu workloads x %zu "
               "policies), %s scale, pool=%u thread(s), hw=%u core(s)\n",
               std::size(graph::kAllWorkloads), std::size(kScalingPolicies),
               smoke ? "smoke" : "full",
               pool.size(), std::thread::hardware_concurrency());

  const auto t_serial = now();
  const double c_serial = cpu_seconds();
  const auto serial = cold_grid(config, nullptr);
  const double serial_s = seconds_since(t_serial);
  const double serial_cpu_s = cpu_seconds() - c_serial;

  const auto t_parallel = now();
  const double c_parallel = cpu_seconds();
  const auto parallel = cold_grid(config, &pool);
  const double parallel_s = seconds_since(t_parallel);
  const double parallel_cpu_s = cpu_seconds() - c_parallel;

  if (!serial.ok() || !parallel.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 (serial.ok() ? parallel : serial).report.summary().c_str());
    return 1;
  }
  const bool identical = same_stats(serial, parallel);
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

  // A wall-clock speedup is only a meaningful scaling claim when more than
  // one CPU was actually available to the process; on a 1-CPU container
  // the serial and parallel runs share one core and the ratio measures
  // scheduler noise. tools/bench.sh refuses to headline an invalid number.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool scaling_valid = hw > 1 && pool.size() > 1;
  const char* threads_env = std::getenv("IMPACT_THREADS");

  std::fprintf(stderr,
               "serial %.2fs (cpu %.2fs)  parallel %.2fs (cpu %.2fs)  "
               "speedup %.2fx%s  cells %s\n",
               serial_s, serial_cpu_s, parallel_s, parallel_cpu_s, speedup,
               scaling_valid ? "" : " [INVALID: single CPU]",
               identical ? "bit-identical" : "MISMATCH");

  std::printf(
      "{\"bench\":\"sweep_scaling\",\"smoke\":%s,\"threads\":%u,"
      "\"impact_threads_env\":\"%s\",\"hardware_concurrency\":%u,"
      "\"serial_seconds\":%.4f,\"serial_cpu_seconds\":%.4f,"
      "\"parallel_seconds\":%.4f,\"parallel_cpu_seconds\":%.4f,"
      "\"speedup\":%.4f,\"scaling_valid\":%s,"
      "\"cells_identical\":%s}\n",
      smoke ? "true" : "false", pool.size(),
      util::json_escape(threads_env != nullptr ? threads_env : "").c_str(),
      hw, serial_s, serial_cpu_s,
      parallel_s, parallel_cpu_s, speedup, scaling_valid ? "true" : "false",
      identical ? "true" : "false");

  return identical ? 0 : 1;
}

}  // namespace

void register_sweep_scaling(Registry& r) {
  ExperimentSpec spec;
  spec.name = "sweep_scaling";
  spec.description =
      "Sweep-engine wall-clock scaling on the Fig. 11 matrix: serial vs "
      "thread pool, results checked bit-identical";
  spec.kind = Kind::kPerf;
  spec.bench_role = "sweep_scaling";
  spec.cell_count = [](const Context&) {
    return std::size(graph::kAllWorkloads) * std::size(kScalingPolicies);
  };
  spec.run = run_sweep_scaling;
  r.add(std::move(spec));
}

}  // namespace impact::lab
