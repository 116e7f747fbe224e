// Shared cache-aware driver harness for experiment grids.
//
// Every heavy experiment in src/lab/experiments/ has the same skeleton:
// build a (parameter x parameter) grid, run one simulation per cell on
// the sweep engine, render rows from the results. CellRunner hoists that
// skeleton once and makes it content-addressed: each cell carries a
// store::Fingerprint over everything that determines its output, the
// ResultCache is probed before a cell simulates, and completed cells are
// published back. A warm re-run of a driver is pure cache lookups.
//
// Two grid shapes cover all current drivers:
//   - defense_matrix: the Fig. 11 (workload x row-policy) grid with
//     shared per-workload inputs interned in a WorkloadStore. Typed
//     results (graph::RunStats + per-cell obs::Snapshot).
//   - rows: a flat N-cell sweep where each cell renders one table row
//     (vector<string>) — the ablation and figure drivers.
//
// Verify mode (IMPACT_STORE_VERIFY=1): a probe that finds a cached record
// stashes the cached bytes and reports a miss, so the cell re-simulates;
// publish then serializes the fresh result and byte-compares it against
// the stash. Any divergence means the cache lied about determinism —
// the process aborts with both fingerprints on stderr. This is the
// paranoid audit the store's correctness claim rests on.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/sweep.hpp"
#include "graph/multiprog.hpp"
#include "store/result_cache.hpp"
#include "store/workload_store.hpp"

namespace impact::store {

/// Fingerprint of one defense-matrix cell (config x workload x policy).
[[nodiscard]] Fingerprint matrix_cell_fingerprint(
    const graph::MultiprogConfig& config, graph::WorkloadKind kind,
    dram::RowPolicy policy);

class CellRunner {
 public:
  /// The runner borrows both stores; they must outlive it. `pool` may be
  /// null for serial execution (results are bit-identical either way).
  CellRunner(ResultCache& cache, WorkloadStore& workloads,
             exec::ThreadPool* pool)
      : cache_(cache), workloads_(workloads), pool_(pool) {}

  struct MatrixCell {
    graph::RunStats stats;
    /// The cell's telemetry: captured fresh when the cell simulated,
    /// spliced from the cached record on a hit (the sweep's own snapshot
    /// slot stays empty for hits — see exec::RunReport::snapshots).
    obs::Snapshot snapshot;
    bool cached = false;
  };

  struct MatrixResult {
    /// cells[workload][policy], indexed like the (kinds, policies) spans.
    std::vector<std::vector<MatrixCell>> cells;
    exec::RunReport report;

    [[nodiscard]] bool ok() const { return report.ok(); }
  };

  /// Runs the (kinds x policies) defense grid. Per-workload inputs come
  /// from the WorkloadStore (built at most once per distinct input
  /// fingerprint); the input-build task of a workload whose policy cells
  /// are all cached is itself skipped, so a fully warm grid builds no
  /// graphs at all.
  [[nodiscard]] MatrixResult defense_matrix(
      const graph::MultiprogConfig& config,
      std::span<const graph::WorkloadKind> kinds,
      std::span<const dram::RowPolicy> policies);

  struct RowsResult {
    /// rows[i] is cell i's rendered row (empty only if the cell failed).
    std::vector<std::vector<std::string>> rows;
    exec::RunReport report;

    [[nodiscard]] bool ok() const { return report.ok(); }
  };

  /// Runs a flat sweep of `n` independent cells. `fingerprint_of(i)` must
  /// cover everything cell i's output depends on (configs, seeds, sweep
  /// parameters); `run(i)` simulates the cell and renders its row. Cells
  /// whose fingerprints hit the cache return the cached row unrun.
  [[nodiscard]] RowsResult rows(
      std::string_view sweep_label, std::size_t n,
      const std::function<Fingerprint(std::size_t)>& fingerprint_of,
      const std::function<std::vector<std::string>(std::size_t)>& run);

  [[nodiscard]] ResultCache& cache() { return cache_; }

 private:
  ResultCache& cache_;
  WorkloadStore& workloads_;
  exec::ThreadPool* pool_;
};

}  // namespace impact::store
