#include "store/cell_runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace impact::store {

namespace {

/// Per-cell scratch the cache hooks write from sweep workers. Each cell
/// owns one distinct slot, so no locking is needed beyond the sweep's own
/// scheduling edges.
struct CellState {
  Fingerprint fp;
  std::string label;
  std::string verify_stash;  ///< Cached bytes awaiting re-simulation.
};

[[noreturn]] void verify_divergence(const CellState& cell,
                                    const std::string& fresh_bytes) {
  std::fprintf(stderr,
               "IMPACT_STORE_VERIFY: cache divergence on cell '%s'\n"
               "  fingerprint: %s\n"
               "  cached record: %zu bytes, re-simulated record: %zu bytes\n"
               "The store returned a result that re-simulation does not\n"
               "reproduce — either the fingerprint misses a dependency or\n"
               "the simulation is nondeterministic. Aborting.\n",
               cell.label.c_str(), cell.fp.hex().c_str(),
               cell.verify_stash.size(), fresh_bytes.size());
  std::abort();
}

/// The probe and publish hooks of one cell. `decode(record)` materializes
/// a cached record into the caller's slot and returns false when the
/// payload does not decode (a stale codec degrades to a miss);
/// `encode()` renders the freshly simulated slot as a record payload.
template <typename Decode, typename Encode>
exec::CacheHooks cache_hooks(ResultCache& cache, CellState& cell,
                             Decode decode, Encode encode) {
  exec::CacheHooks hooks;
  hooks.probe = [&cache, &cell, decode] {
    std::string raw;
    std::optional<Record> rec = cache.lookup(cell.fp, &raw);
    if (!rec) return false;
    if (cache.options().verify) {
      cell.verify_stash = std::move(raw);
      return false;  // Force a re-simulation; publish compares.
    }
    return decode(*rec);
  };
  hooks.publish = [&cache, &cell, encode](const obs::Snapshot& snap) {
    const Record rec{cell.fp, cell.label, encode(), snap};
    if (!cell.verify_stash.empty()) {
      const std::string fresh = serialize(rec);
      if (fresh != cell.verify_stash) verify_divergence(cell, fresh);
      return;  // Audited identical; the cached copy already exists.
    }
    cache.store(rec);
  };
  return hooks;
}

}  // namespace

Fingerprint matrix_cell_fingerprint(const graph::MultiprogConfig& config,
                                    graph::WorkloadKind kind,
                                    dram::RowPolicy policy) {
  Canon c;
  c.field("cell", "graph.multiprog.defense");
  c.object("config", canon_of(config));
  c.field("workload", to_string(kind));
  c.field("policy", to_string(policy));
  return c.fingerprint();
}

CellRunner::MatrixResult CellRunner::defense_matrix(
    const graph::MultiprogConfig& config,
    std::span<const graph::WorkloadKind> kinds,
    std::span<const dram::RowPolicy> policies) {
  const bool verify = cache_.options().verify;
  MatrixResult out;
  out.cells.assign(kinds.size(),
                   std::vector<MatrixCell>(policies.size()));

  std::vector<std::vector<CellState>> states(kinds.size());
  std::vector<std::vector<exec::Sweep::TaskId>> ids(
      kinds.size(), std::vector<exec::Sweep::TaskId>(policies.size()));

  exec::Sweep sweep(pool_);
  sweep.set_capture(true);
  for (std::size_t w = 0; w < kinds.size(); ++w) {
    const graph::WorkloadKind kind = kinds[w];
    states[w].resize(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
      states[w][p].fp = matrix_cell_fingerprint(config, kind, policies[p]);
      states[w][p].label = "run:" + std::string(to_string(kind)) + ":" +
                           to_string(policies[p]);
    }

    // The input build is itself cache-aware: when every policy cell of
    // this workload already has a record (and we are not auditing), the
    // graph never needs to exist. In verify mode the cells will
    // re-simulate, so the input must be built regardless.
    exec::CacheHooks build_hooks;
    build_hooks.probe = [this, &config, w, &states, verify] {
      if (verify) return false;
      for (const CellState& cell : states[w]) {
        if (!cache_.contains(cell.fp)) return false;
      }
      return true;
    };
    const exec::Sweep::TaskId build = sweep.add_cached(
        "input:" + std::string(to_string(kind)),
        [this, &config, kind] { (void)workloads_.get(config, kind); },
        std::move(build_hooks));

    for (std::size_t p = 0; p < policies.size(); ++p) {
      CellState& cell = states[w][p];
      MatrixCell& slot = out.cells[w][p];
      exec::CacheHooks hooks = cache_hooks(
          cache_, cell,
          [&slot](Record& rec) {
            const std::optional<graph::RunStats> stats =
                decode_run_stats(rec.payload);
            if (!stats) return false;
            slot.stats = *stats;
            slot.snapshot = std::move(rec.snapshot);
            slot.cached = true;
            return true;
          },
          [&slot] { return encode(slot.stats); });
      const graph::WorkloadKind cell_kind = kind;
      const dram::RowPolicy policy = policies[p];
      ids[w][p] = sweep.add_cached(
          cell.label,
          // Re-resolving through the WorkloadStore (instead of holding a
          // pointer filled by the build task) keeps the cell correct even
          // when the build was probe-skipped but this cell's record then
          // failed to decode: get() builds on demand, exactly once.
          [this, &config, cell_kind, policy, &slot] {
            const graph::WorkloadInput* input =
                workloads_.get(config, cell_kind);
            slot.stats = graph::run_multiprogrammed(config, *input, policy);
          },
          std::move(hooks), {build});
    }
  }

  out.report = sweep.run();
  // Splice fresh telemetry into the per-cell results: cached cells carry
  // their record's snapshot already, fresh cells take the sweep capture.
  for (std::size_t w = 0; w < kinds.size(); ++w) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      if (!out.cells[w][p].cached) {
        out.cells[w][p].snapshot = out.report.snapshots[ids[w][p]];
      }
    }
  }
  return out;
}

CellRunner::RowsResult CellRunner::rows(
    std::string_view sweep_label, std::size_t n,
    const std::function<Fingerprint(std::size_t)>& fingerprint_of,
    const std::function<std::vector<std::string>(std::size_t)>& run) {
  RowsResult out;
  out.rows.resize(n);

  std::vector<CellState> states(n);
  exec::Sweep sweep(pool_);
  sweep.set_capture(true);
  for (std::size_t i = 0; i < n; ++i) {
    CellState& cell = states[i];
    cell.fp = fingerprint_of(i);
    cell.label =
        std::string(sweep_label) + "[" + std::to_string(i) + "]";
    std::vector<std::string>& slot = out.rows[i];

    exec::CacheHooks hooks = cache_hooks(
        cache_, cell,
        [&slot](Record& rec) {
          std::optional<std::vector<std::string>> row =
              decode_row(rec.payload);
          if (!row) return false;
          slot = std::move(*row);
          return true;
        },
        [&slot] { return encode_row(slot); });
    sweep.add_cached(cell.label, [&run, &slot, i] { slot = run(i); },
                     std::move(hooks));
  }

  out.report = sweep.run();
  return out;
}

}  // namespace impact::store
