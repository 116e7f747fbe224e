// Multiprogrammed graph execution over the simulated memory system.
//
// Fig. 11's setup: a 2-core system where both cores run an instance of the
// same workload on the *same shared input graph* (the CSR arrays' physical
// pages are mapped into both processes, so both hit the same DRAM banks),
// each with private algorithm state. We replay both instances' traces
// interleaved by simulated time and measure total cycles per row policy.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "dram/config.hpp"
#include "graph/graph.hpp"
#include "graph/workload.hpp"
#include "sys/system.hpp"

namespace impact::graph {

struct MultiprogConfig {
  sys::SystemConfig system = scaled_system();
  std::uint32_t rmat_scale = 15;      ///< 32k vertices.
  std::size_t edge_count = 262144;    ///< Directed edges.
  std::uint64_t graph_seed = 99;

  auto operator<=>(const MultiprogConfig&) const = default;

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

/// The row-policy-independent half of a multiprogrammed run: both
/// instances' TLB, translation and cache work, recorded as streams of the
/// ops that reach DRAM and their decoded requests (defined in
/// multiprog.cpp).
struct FrontEnd;

/// Thread-safe one-entry memo of an input's FrontEnd, keyed on the part of
/// the system config the front end reads: the whole config less the groups
/// it never reads (core count and frequency, row policy, DRAM timing and
/// frequency, timer, DMA). A config that differs anywhere else replaces
/// the entry. A copy starts
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

  /// DRAM requests one row-policy cell replays from the current entry
  /// (both instances); 0 before the first run.
  [[nodiscard]] std::uint64_t dram_requests() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const FrontEnd> entry_;
};

/// The shared input of one Fig. 11 bar group: the RMAT graph and the
/// workload trace both co-scheduled instances replay. Building it is a
/// significant fraction of a run, so the sweep engine builds it once per
/// workload and shares it (read-only) across the per-policy cells. The
/// graph is itself shared by every live input of the same graph key (see
/// shared_graph), whatever its kernel.
struct WorkloadInput {
  std::shared_ptr<const CsrGraph> graph;
  WorkloadTrace trace;
  /// Filled by the first run_multiprogrammed call on this input and reused
  /// by every later call under another row policy.
  mutable FrontEndMemo front_end;
};

/// The part of `config` a workload input's build reads: `config` with
/// `system` reset. Configs whose views compare equal build the same graph
/// and, for one kind, the same trace.
[[nodiscard]] MultiprogConfig graph_inputs(MultiprogConfig config);

/// The RMAT graph of graph_inputs(config): every graph alive at once with
/// an equal view shares one build, which is freed with its last holder.
[[nodiscard]] std::shared_ptr<const CsrGraph> shared_graph(
    const MultiprogConfig& config);

/// Graphs shared_graph has built so far in this process (a test hook:
/// sharing shows as builds not made).
[[nodiscard]] std::size_t graph_builds();

/// Deterministically builds the shared input for `kind` (config seed).
[[nodiscard]] WorkloadInput build_input(const MultiprogConfig& config,
                                        WorkloadKind kind);

/// Runs two co-scheduled instances replaying `input` under `policy`.
///
/// Split in two (docs/performance.md, "Front end / back end split"). The
/// front end — each instance's TLB, translation and private cache
/// hierarchy — depends only on the input and the system config, so it
/// runs once per input and is memoised on `input.front_end`. Each call
/// then replays only the recorded DRAM events (the ops that send DRAM
/// requests) through a fresh controller under `policy`. Results, obs
/// counters included, are bit-identical to replaying every access through
/// a sys::MemorySystem.
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           const WorkloadInput& input,
                                           dram::RowPolicy policy);

/// Convenience: builds the input, then runs. Bit-identical to the
/// two-step form (the input build is deterministic in the config seed).
[[nodiscard]] RunStats run_multiprogrammed(const MultiprogConfig& config,
                                           WorkloadKind kind,
                                           dram::RowPolicy policy);

}  // namespace impact::graph
