// Fig. 11: performance overhead of the closed-row (CRP) and constant-time
// (CTD) defenses versus the open-row baseline, on five multiprogrammed
// graph workloads sharing their input graph (2-core system).
//
// Paper: CTD costs 26% on average, CRP 15%, with CRP cheap on the
// workloads that do not benefit from the open-row policy.
//
// The grid runs through the content-addressed store::CellRunner: every
// cell gets its own obs scope, is probed against the ResultCache before
// simulating (a warm run is pure lookups — see the `grid_perf` experiment),
// and the table below is rebuilt from the per-cell snapshots (graph.*
// counters) rather than the tasks' own RunStats — the spine's accounting
// is the figure. A cell without a snapshot falls back to its RunStats,
// which are identical.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "obs/snapshot.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

constexpr dram::RowPolicy kFig11Policies[] = {
    dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
    dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive};

int run_fig11(Context& ctx) {
  exec::ThreadPool& pool = ctx.pool();
  std::printf("=== bench_fig11: defense overheads (CRP / CTD vs open row) "
              "===\n\n");
  // The worker count goes to stderr: stdout is the same at any count.
  std::fprintf(stderr,
               "2 cores, shared RMAT input, hierarchy+input scaled 256x, "
               "%u worker thread(s)\n",
               pool.size());

  graph::MultiprogConfig config;
  store::CellRunner& runner = ctx.runner();
  const store::CellRunner::MatrixResult grid =
      runner.defense_matrix(config, graph::kAllWorkloads, kFig11Policies);
  if (!grid.ok()) {
    std::printf("sweep failed: %s\n", grid.report.summary().c_str());
    return 1;
  }

  std::fputs(render_fig11(grid).c_str(), stdout);

  const store::ResultCache::Stats cs = ctx.cache().stats();
  std::fprintf(stderr,
               "store: %llu hits (%llu from disk), %llu misses, %llu "
               "stored\n",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.disk_hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.stored));
  return 0;
}

}  // namespace

std::string render_fig11(const store::CellRunner::MatrixResult& grid) {
  const std::size_t workloads = std::size(graph::kAllWorkloads);

  // One row value: from the cell's snapshot when it carries one, from the
  // cell's RunStats otherwise.
  // Bit-identical either way — and bit-identical whether the cell
  // simulated or came from the cache.
  const auto cell_stats = [&](std::size_t w, std::size_t p) {
    const store::CellRunner::MatrixCell& cell = grid.cells[w][p];
    if (cell.snapshot.empty()) return cell.stats;
    graph::RunStats r;
    r.cycles = cell.snapshot.counter("graph.cycles");
    r.instructions = cell.snapshot.counter("graph.instructions");
    r.accesses = cell.snapshot.counter("graph.accesses");
    r.llc_misses = cell.snapshot.counter("graph.llc_misses");
    r.row_hit_rate = cell.snapshot.gauge("graph.row_hit_rate");
    return r;
  };

  util::Table table({"workload", "MPKI", "row-hit rate", "open-row (cyc)",
                     "CRP overhead", "CTD overhead",
                     "adaptive overhead (ext.)"});
  double crp_sum = 0.0;
  double ctd_sum = 0.0;
  double adp_sum = 0.0;
  int n = 0;
  obs::Snapshot totals;
  for (std::size_t w = 0; w < workloads; ++w) {
    const graph::RunStats open_row = cell_stats(w, 0);
    const auto overhead = [&](std::size_t p) {
      return static_cast<double>(cell_stats(w, p).cycles) /
                 static_cast<double>(open_row.cycles) -
             1.0;
    };
    crp_sum += overhead(1);
    ctd_sum += overhead(2);
    adp_sum += overhead(3);
    ++n;
    for (std::size_t p = 0; p < std::size(kFig11Policies); ++p) {
      totals.merge(grid.cells[w][p].snapshot);
    }
    table.add_row({to_string(graph::kAllWorkloads[w]),
                   util::Table::num(open_row.mpki()),
                   util::Table::num(open_row.row_hit_rate),
                   util::Table::num(open_row.cycles, 0),
                   util::Table::num(100.0 * overhead(1), 1) + "%",
                   util::Table::num(100.0 * overhead(2), 1) + "%",
                   util::Table::num(100.0 * overhead(3), 1) + "%"});
  }

  std::string out = table.render();
  out += '\n';
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "average: CRP %.1f%% (paper 15%%), CTD %.1f%% (paper 26%%), "
      "adaptive %.1f%% (extension)\n"
      "The adaptive open-page policy costs about as much as CRP on these\n"
      "conflict-heavy workloads and pushes the naive covert channel to\n"
      "near-chance error (test_defense AdaptivePolicy tests). It keeps few of\n"
      "the open row's benign hits: its row-hit rate is under a tenth of\n"
      "open-row's (test_headline_numbers Headline.AdaptiveTracksCrpOnCc).\n"
      "Unlike CRP, its guarantee is heuristic: an attacker who re-trains the\n"
      "predictor with hit bursts can partially reopen the channel.\n",
      100.0 * crp_sum / n, 100.0 * ctd_sum / n, 100.0 * adp_sum / n);
  out += buf;
  if (!totals.empty()) {
    out += "\ngrid totals (merged per-cell obs snapshots):\n";
    out += totals.table("  ");
  }
  return out;
}

void register_fig11(Registry& r) {
  ExperimentSpec spec;
  spec.name = "fig11";
  spec.description =
      "Defense overheads: CRP / CTD / adaptive vs open-row baseline on "
      "five multiprogrammed graph workloads";
  spec.kind = Kind::kFigure;
  spec.cell_count = [](const Context&) {
    return std::size(graph::kAllWorkloads) * std::size(kFig11Policies);
  };
  spec.run = run_fig11;
  r.add(std::move(spec));
}

}  // namespace impact::lab
