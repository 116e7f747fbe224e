// Multiprogrammed graph execution over the simulated memory system.
//
// Fig. 11's setup: a 2-core system where both cores run an instance of the
// same workload on the *same shared input graph* (the CSR arrays' physical
// pages are mapped into both processes, so both hit the same DRAM banks),
// each with private algorithm state. We replay both instances' traces
// interleaved by simulated time and measure total cycles per row policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dram/config.hpp"
// Graph drivers consume the sweep engine as a library; exec never
// includes graph, so the DAG stays acyclic.
// SIMLINT-ALLOW(layering): sweep engine consumed as a library.
#include "exec/sweep.hpp"
#include "graph/graph.hpp"
#include "graph/workload.hpp"
#include "sys/system.hpp"

namespace impact::graph {

struct MultiprogConfig {
  sys::SystemConfig system = scaled_system();
  std::uint32_t rmat_scale = 15;      ///< 32k vertices.
  std::size_t edge_count = 262144;    ///< Directed edges.
  std::uint64_t graph_seed = 99;

  /// Fig. 11 default: hierarchy scaled down 256x together with the input
  /// graph (paper inputs are 7-8 GB; see SystemConfig::cache_scale), which
  /// keeps the working-set-to-cache ratios, and with them the paper's
  /// MPKI regime, while staying replayable in seconds.
  [[nodiscard]] static sys::SystemConfig scaled_system() {
    sys::SystemConfig s;
    s.cache_scale = 256;
    return s;
  }
};

struct RunStats {
  util::Cycle cycles = 0;          ///< Makespan of the two instances.
  std::uint64_t instructions = 0;  ///< Both instances combined.
  std::uint64_t accesses = 0;
  std::uint64_t llc_misses = 0;
  double row_hit_rate = 0.0;       ///< Of the DRAM accesses performed.

  [[nodiscard]] double mpki() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(llc_misses) /
                                   static_cast<double>(instructions);
  }

  /// Exact (bitwise for row_hit_rate) equality: the determinism tests pin
  /// parallel sweeps to the serial results with no tolerance.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// One Fig. 11 bar group: a workload's overheads relative to open-row.
struct DefenseOverheads {
  WorkloadKind kind = WorkloadKind::kBFS;
  RunStats open_row;
  RunStats closed_row;
  RunStats constant_time;

  /// Baseline-relative overheads; 0 when the baseline has not run (or ran
  /// an empty trace), so a partially-filled matrix cell never divides by
  /// zero.
  [[nodiscard]] double crp_overhead() const {
    return open_row.cycles == 0
               ? 0.0
               : static_cast<double>(closed_row.cycles) /
                         static_cast<double>(open_row.cycles) -
                     1.0;
  }
  [[nodiscard]] double ctd_overhead() const {
    return open_row.cycles == 0
               ? 0.0
               : static_cast<double>(constant_time.cycles) /
                         static_cast<double>(open_row.cycles) -
                     1.0;
  }

  friend bool operator==(const DefenseOverheads&,
                         const DefenseOverheads&) = default;
};

/// The row-policy-independent half of a multiprogrammed run: both
/// instances' TLB, translation and cache work, recorded as compact per-op
/// streams of DRAM requests (defined in multiprog.cpp).
struct FrontEnd;

/// Thread-safe one-entry memo of an input's FrontEnd, keyed on the
/// system-config fields the front end reads (caches, prefetchers, TLB,
/// seed, DRAM geometry and mapping — not the row policy or DRAM timing).
/// A config that differs in any of them replaces the entry. A copy starts
/// empty and copy assignment empties the target, so an entry never
/// outlives the trace it was recorded from.
class FrontEndMemo {
 public:
  FrontEndMemo() = default;
  FrontEndMemo(const FrontEndMemo&) noexcept {}
  FrontEndMemo& operator=(const FrontEndMemo&) noexcept;

  /// Returns the entry recorded under a config equivalent to `system`,
  /// calling `build` on a miss. `build` runs under the memo's lock, so
  /// concurrent callers of one input record it once.
  [[nodiscard]] std::shared_ptr<const FrontEnd> get(
      const sys::SystemConfig& system,
      const std::function<std::shared_ptr<const FrontEnd>()>& build);

 private:
  std::mutex mu_;
  std::shared_ptr<const FrontEnd> entry_;
};

/// The shared input of one Fig. 11 bar group: the RMAT graph and the
/// workload trace both co-scheduled instances replay. Building it is a
/// significant fraction of a run, so the sweep engine builds it once per
/// workload and shares it (read-only) across the per-policy cells.
struct WorkloadInput {
  CsrGraph graph;
  WorkloadTrace trace;
  /// Filled by the first run_multiprogrammed call on this input and reused
  /// by every later call under another row policy.
  mutable FrontEndMemo front_end;
};

/// Deterministically builds the shared input for `kind` (config seed).
[[nodiscard]] WorkloadInput build_input(const MultiprogConfig& config,
                                        WorkloadKind kind);

/// Runs two co-scheduled instances replaying `input` under `policy`.
///
/// Split in two (docs/performance.md, "Front end / back end split"). The
/// front end — each instance's TLB, translation and private cache
/// hierarchy — depends only on the input and the system config, so it
/// runs once per input and is memoised on `input.front_end`. Each call
/// then replays only the recorded DRAM requests through a fresh
/// controller under `policy`. Results, obs counters included, are
/// bit-identical to replaying every access through a sys::MemorySystem.
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           const WorkloadInput& input,
                                           dram::RowPolicy policy);

/// Convenience: builds the input, then runs. Bit-identical to the
/// two-step form (the input build is deterministic in the config seed).
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           WorkloadKind kind,
                                           dram::RowPolicy policy);

/// Runs the full Fig. 11 matrix for one workload (all three policies),
/// fanning the per-policy cells out over `pool` when provided. Results are
/// bit-identical to the serial path for any pool size.
[[nodiscard]] DefenseOverheads evaluate_defenses(
    const MultiprogConfig& config, WorkloadKind kind,
    exec::ThreadPool* pool = nullptr);

/// The whole Fig. 11 grid: one input-build task per workload feeding three
/// per-policy run tasks, scheduled as a Sweep task graph over `pool`
/// (serial in insertion order when `pool` is null). Output order follows
/// `kinds`; cell values are schedule-independent.
[[nodiscard]] std::vector<DefenseOverheads> evaluate_defense_matrix(
    const MultiprogConfig& config, std::span<const WorkloadKind> kinds,
    exec::ThreadPool* pool = nullptr);

}  // namespace impact::graph
