// System-level configuration (Table 2) and the MemorySystem façade.
//
// MemorySystem wires together the per-process CPU-side path
// (TLB -> L1 -> L2 -> LLC -> memory controller) and the direct paths that
// bypass the cache hierarchy (abstract direct access, DMA-engine access).
// PiM paths (PEI, RowClone) live in src/pim and use the same controller.
//
// Modeling note: each simulated process gets a private hierarchy (its
// L1/L2 plus an LLC slice). The attacks under study communicate through
// DRAM row-buffer state, not through shared cache sets, so private LLC
// slices preserve every mechanism the paper measures; the purely
// cache-resident comparison attack (Streamline) is modelled analytically,
// exactly as the paper itself does (§5.1).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cache/hierarchy.hpp"
#include "dram/controller.hpp"
#include "sys/sync.hpp"
#include "sys/timer.hpp"
#include "sys/tlb.hpp"
#include "sys/vmem.hpp"

namespace impact::fault {
class Injector;
}  // namespace impact::fault

namespace impact::sys {

struct DmaConfig {
  /// Descriptor setup, doorbell, and completion handling for one transfer.
  /// §5.1 assumes a powerful attacker who avoids context-switch and most
  /// OS costs; this is the irreducible user-space driver overhead left.
  util::Cycle per_transfer_overhead = 330;

  auto operator<=>(const DmaConfig&) const = default;
};

struct SystemConfig {
  double freq_ghz = 2.6;
  std::uint32_t cores = 4;
  dram::DramConfig dram{};
  dram::MappingScheme mapping = dram::MappingScheme::kBankInterleaved;
  std::uint64_t llc_bytes = 8ull * 1024 * 1024;  // 2 MiB/core x 4 cores.
  std::uint32_t llc_ways = 16;
  /// Uniform divisor applied to all cache capacities (power of two). The
  /// Fig. 11 reproduction scales hierarchy and input graph down together
  /// (the paper's inputs are 7-8 GB), preserving working-set-to-cache
  /// ratios and with them the per-workload MPKI regime.
  std::uint32_t cache_scale = 1;
  bool prefetchers = true;
  TlbConfig tlb{};
  TimerConfig timer{};
  DmaConfig dma{};
  std::uint64_t seed = 42;

  auto operator<=>(const SystemConfig&) const = default;

  [[nodiscard]] util::Frequency frequency() const {
    return util::Frequency{freq_ghz};
  }

  /// Human-readable Table 2-style description for bench headers.
  [[nodiscard]] std::string describe() const;
};

/// Result of one access over any path.
struct PathResult {
  util::Cycle latency = 0;
  cache::HitLevel level = cache::HitLevel::kMemory;
  dram::RowBufferOutcome outcome = dram::RowBufferOutcome::kEmpty;
};

class MemorySystem {
 public:
  explicit MemorySystem(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] dram::MemoryController& controller() { return controller_; }
  [[nodiscard]] VirtualMemory& vmem() { return vmem_; }
  [[nodiscard]] const Timestamp& timestamp() const { return timestamp_; }

  /// Per-process CPU-side structures. An actor's context, with its TLB, is
  /// created on the actor's first use of any path; its cache hierarchy only
  /// on the first request for it (here, or from load, store, clflush, evict
  /// or port), since the PiM and direct paths never read one. Until then
  /// the hierarchy's `cache.*` counters read 0 in the obs:: registry that
  /// was current when the context was created, and a hierarchy built later
  /// reports into that same registry.
  cache::Hierarchy& hierarchy(dram::ActorId actor);
  Tlb& tlb(dram::ActorId actor);

  /// Cache hierarchies this system has built so far (a test hook: a
  /// hierarchy no path needed shows as one not built).
  [[nodiscard]] std::size_t hierarchy_builds() const {
    return hierarchy_builds_;
  }

  /// Attaches a fault injector to this system and its controller (nullptr
  /// detaches; non-owning — the injector must outlive the system or be
  /// detached first). DRAM-level faults fire inside the controller; actor-
  /// level faults (semaphore drop/delay, clock drift) are consulted by the
  /// channel drivers via fault_injector().
  void set_fault_injector(fault::Injector* injector) {
    faults_ = injector;
    controller_.set_fault_injector(injector);
  }
  [[nodiscard]] fault::Injector* fault_injector() { return faults_; }

  /// Mid-run protocol audit: reconciles every bank's BankStats against the
  /// command stream observed by the auto-attached protocol checker
  /// (IMPACT_CHECK). No-op when the checker is disabled. In abort mode a
  /// divergence terminates the process with a bank-level trace.
  void reconcile_protocol();

  /// TLB translation that consults the page size of the backing mapping
  /// (4 KiB vs 2 MiB pages). All access paths use this.
  TlbResult translate(dram::ActorId actor, VAddr vaddr);

  // --- CPU-side path (translate + cache hierarchy) --------------------
  PathResult load(dram::ActorId actor, VAddr vaddr, util::Cycle& clock,
                  std::uint64_t pc = 0);
  PathResult store(dram::ActorId actor, VAddr vaddr, util::Cycle& clock,
                   std::uint64_t pc = 0);

  /// Cached per-actor CPU-side path for hot replay loops: resolves the
  /// actor's TLB, hierarchy, and translation view once, so the per-access
  /// path touches no actor hash maps. load/store are bit-identical to
  /// MemorySystem::load/store for the same actor (the underlying TLB,
  /// caches, and banks are the very same objects — a port and the façade
  /// calls may be freely interleaved). Valid for the system's lifetime.
  class AccessPort {
   public:
    PathResult load(VAddr vaddr, util::Cycle& clock, std::uint64_t pc = 0) {
      return access(vaddr, clock, /*is_write=*/false, pc);
    }
    PathResult store(VAddr vaddr, util::Cycle& clock, std::uint64_t pc = 0) {
      return access(vaddr, clock, /*is_write=*/true, pc);
    }

   private:
    friend class MemorySystem;
    AccessPort(Tlb& tlb, cache::Hierarchy& hier,
               VirtualMemory::TranslationView view)
        : tlb_(&tlb), hier_(&hier), view_(view) {}

    PathResult access(VAddr vaddr, util::Cycle& clock, bool is_write,
                      std::uint64_t pc) {
      const auto tr = tlb_->translate(vaddr, view_.is_huge(vaddr));
      const dram::PhysAddr paddr = view_.translate(vaddr);
      const auto mem = hier_->access(paddr, clock + tr.latency, is_write, pc);
      PathResult r;
      r.latency = tr.latency + mem.latency;
      r.level = mem.level;
      r.outcome = mem.dram_outcome;
      clock += r.latency;
      return r;
    }

    Tlb* tlb_;
    cache::Hierarchy* hier_;
    VirtualMemory::TranslationView view_;
  };

  /// Builds an AccessPort for `actor` (creating its context and hierarchy
  /// on first use).
  [[nodiscard]] AccessPort port(dram::ActorId actor) {
    cache::Hierarchy& hier = hierarchy(actor);
    return AccessPort(context(actor).tlb, hier, vmem_.view(actor));
  }
  /// clflush of the line holding `vaddr` (translate + LLC probe + WB).
  util::Cycle clflush(dram::ActorId actor, VAddr vaddr, util::Cycle& clock);
  /// Eviction-set displacement of the line holding `vaddr` (§3.3 baseline).
  util::Cycle evict(dram::ActorId actor, VAddr vaddr, util::Cycle& clock);

  // --- Cache-bypassing paths ------------------------------------------
  /// Abstract direct main-memory access: one request, no cache lookup
  /// (§3.3's "direct memory access attack" upper bound).
  PathResult direct_access(dram::ActorId actor, VAddr vaddr,
                           util::Cycle& clock);
  /// DMA-engine access: fixed driver overhead + uncached DRAM access.
  PathResult dma_access(dram::ActorId actor, VAddr vaddr,
                        util::Cycle& clock);

  /// Pre-warms translation structures for a span (§5.1 warm-up phase).
  void warm_span(dram::ActorId actor, const VSpan& span);

  /// DRAM traffic of a page-table walk: the walker fetches the leaf PTE
  /// from memory, activating a pseudo-random row. This is one of the §5.1
  /// noise sources — walker traffic perturbs row-buffer state that attacks
  /// rely on. Call with `walked` from a TlbResult.
  void charge_walk_traffic(dram::ActorId actor, VAddr vaddr, bool walked,
                           util::Cycle now);

 private:
  struct CpuContext {
    explicit CpuContext(const TlbConfig& tlb_config);
    Tlb tlb;
    /// The registry current at creation, for a hierarchy built later.
    obs::Registry* registry;
    std::unique_ptr<cache::Hierarchy> hierarchy;  ///< Null until requested.
  };

  CpuContext& context(dram::ActorId actor);

  SystemConfig config_;
  dram::MemoryController controller_;
  VirtualMemory vmem_;
  Timestamp timestamp_;
  std::unordered_map<dram::ActorId, std::unique_ptr<CpuContext>> contexts_;
  std::size_t hierarchy_builds_ = 0;
  fault::Injector* faults_ = nullptr;
};

}  // namespace impact::sys
