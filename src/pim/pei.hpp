// PIM-Enabled Instructions: the PnM execution path.
//
// A PEI (e.g. `pim_add`) names a virtual address; after translation the PMU
// locality monitor routes it either to the PCU near the target DRAM bank
// (bypassing the whole cache hierarchy) or to the host-side PCU (a normal
// cached access plus the compute). Memory-side execution is the direct,
// fast, ISA-guaranteed main-memory access IMPACT-PnM builds on (§4.1).
#pragma once

#include <cstdint>

#include "cache/hierarchy.hpp"
#include "dram/controller.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pim/locality_monitor.hpp"
#include "sys/system.hpp"
#include "util/units.hpp"

namespace impact::pim {

enum class PeiKind : std::uint8_t { kAdd, kMin, kBitwise, kCopy };

struct PeiConfig {
  /// Getting the PEI packet from the core to the memory controller /
  /// memory-side PCU command queue (uncacheable request path).
  util::Cycle offchip_issue_latency = 6;
  /// The near-bank PCU's compute time (§5.1: "~3 cycles to execute").
  util::Cycle pcu_compute_latency = 3;
  /// Returning the (small) PEI result/ack to the core.
  util::Cycle response_latency = 4;
  LocalityMonitorConfig pmu{};
};

struct PeiResult {
  util::Cycle latency = 0;
  PeiPlacement placement = PeiPlacement::kMemory;
  dram::RowBufferOutcome outcome = dram::RowBufferOutcome::kEmpty;
  dram::BankId bank = 0;
};

/// Per-process PEI front end: owns the PMU, issues memory-side PEIs to the
/// controller and host-side PEIs through the process's cache hierarchy.
///
/// The constructor resolves the per-actor structures every PEI needs once —
/// TLB, controller, and a VirtualMemory::TranslationView — so the per-PEI
/// path touches no actor hash maps (the covert channels execute millions of
/// PEIs through one dispatcher). The cache hierarchy is resolved on the
/// first host-side PEI: an actor whose PEIs all go memory-side never has
/// one built.
class PeiDispatcher {
 public:
  PeiDispatcher(PeiConfig config, sys::MemorySystem& system,
                dram::ActorId actor);

  /// Executes one PEI targeting `vaddr`, advancing the actor clock.
  PeiResult execute(sys::VAddr vaddr, util::Cycle& clock,
                    PeiKind kind = PeiKind::kAdd);

  /// Executes `n` PEIs as one chained run: op i+1 issues at the clock left
  /// by op i (`clock += pre_cost; <execute>; clock += post_cost` per op,
  /// so a measured probe loop — timestamp read before, fast read after —
  /// batches without changing a single cycle). Each result is
  /// bit-identical to the equivalent scalar sequence; the obs seam is
  /// hoisted to one guarded counter update per batch (totals match the
  /// scalar path; per-op trace spans are still emitted when a trace
  /// session is attached).
  void execute_batch(const sys::VAddr* vaddrs, std::size_t n,
                     util::Cycle& clock, util::Cycle pre_cost,
                     util::Cycle post_cost, PeiResult* results);

  [[nodiscard]] const LocalityMonitor& pmu() const { return pmu_; }
  [[nodiscard]] const PeiConfig& config() const { return config_; }

  /// Rotating-block helper used by attacks: returns a column offset within
  /// a row such that consecutive calls target fresh cache blocks, keeping
  /// the PMU's ignore-flag path active (§4.1 bypass).
  [[nodiscard]] std::uint32_t next_bypass_column(std::uint32_t row_bytes,
                                                 std::uint32_t line_bytes);

 private:
  /// The per-PEI work shared by execute and execute_batch: translate,
  /// place, access, advance `clock`. No obs traffic.
  PeiResult execute_one(sys::VAddr vaddr, util::Cycle& clock);
  /// Resolves hier_ (building the actor's hierarchy if need be), once.
  [[gnu::cold]] void resolve_hierarchy();

  PeiConfig config_;
  sys::MemorySystem* system_;
  dram::ActorId actor_;
  LocalityMonitor pmu_;
  std::uint32_t bypass_cursor_ = 0;
  // Hot-path handles resolved once (stable: contexts and their hierarchies
  // are never erased and the controller is owned by the system).
  sys::Tlb* tlb_;
  cache::Hierarchy* hier_ = nullptr;  ///< Null until the first host-side PEI.
  dram::MemoryController* mc_;
  sys::VirtualMemory::TranslationView view_;
  // obs:: handles resolved once at construction; null (one predictable
  // branch per PEI) outside an obs::Scope.
  obs::Counter obs_ops_;
  obs::Counter obs_memory_side_;
  obs::Counter obs_host_side_;
  obs::TraceSession* obs_trace_ = nullptr;
};

}  // namespace impact::pim
