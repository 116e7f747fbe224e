// Three-level inclusive cache hierarchy in front of the memory controller
// (Table 2: 32 KiB L1D w/ IP-stride, 1 MiB L2 w/ SRRIP + streamer,
// 2 MiB/core 16-way SRRIP LLC).
//
// This is the processor-centric memory path that IMPACT's PiM operations
// bypass. The model is functional at line granularity: tags, replacement,
// inclusive back-invalidation, dirty writebacks, prefetch pollution — so
// that eviction sets, clflush and cache-filtering of memory requests behave
// the way the paper's §3 analysis assumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/latency_model.hpp"
#include "cache/prefetcher.hpp"
#include "dram/controller.hpp"
#include "obs/registry.hpp"
#include "util/units.hpp"

namespace impact::cache {

enum class HitLevel : std::uint8_t { kL1, kL2, kL3, kMemory };

[[nodiscard]] constexpr const char* to_string(HitLevel l) {
  switch (l) {
    case HitLevel::kL1:
      return "L1";
    case HitLevel::kL2:
      return "L2";
    case HitLevel::kL3:
      return "L3";
    case HitLevel::kMemory:
      return "memory";
  }
  return "?";
}

struct HierarchyConfig {
  CacheConfig l1;
  CacheConfig l2;
  CacheConfig l3;
  bool enable_prefetchers = true;
  /// Outstanding-miss parallelism: how many DRAM fills an eviction burst
  /// overlaps (MSHR-limited). Governs the §3.3 eviction-latency model.
  std::uint32_t mlp = 4;

  /// Table 2 configuration with a parameterizable LLC (for the Fig. 2/3/8
  /// sweeps). LLC lookup latency follows the CACTI-style model.
  [[nodiscard]] static HierarchyConfig table2(
      std::uint64_t llc_bytes = 8ull * 1024 * 1024,
      std::uint32_t llc_ways = 16);

  void validate() const;
};

struct MemAccessResult {
  util::Cycle latency = 0;
  HitLevel level = HitLevel::kL1;
  /// DRAM row-buffer outcome; meaningful only when level == kMemory.
  dram::RowBufferOutcome dram_outcome = dram::RowBufferOutcome::kEmpty;
};

class Hierarchy {
 public:
  /// The hierarchy issues misses/writebacks/prefetch fills to `controller`
  /// on behalf of `actor`. The controller must outlive the hierarchy.
  Hierarchy(HierarchyConfig config, dram::MemoryController& controller,
            dram::ActorId actor = dram::kAnyActor);
  /// Flushes any obs:: snapshot providers registered at construction (the
  /// per-level hit/miss counters stay visible in snapshots taken after the
  /// hierarchy is gone). Registered providers capture `this`, so the
  /// hierarchy is neither copyable nor movable.
  ~Hierarchy();
  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;

  [[nodiscard]] const HierarchyConfig& config() const { return config_; }

  /// A demand load/store at `now`. `pc` feeds the prefetchers.
  MemAccessResult access(dram::PhysAddr addr, util::Cycle now,
                         bool is_write = false, std::uint64_t pc = 0);

  /// Record mode (graph::run_multiprogrammed's policy-independent front
  /// end, docs/performance.md "Front end / back end split"): while `log`
  /// is set, every DRAM request — a demand miss, then the writebacks and
  /// prefetch fills it triggers — is appended to `log` as a line index in
  /// issue order instead of reaching the controller, and costs 0 cycles.
  /// Cache state evolves exactly as with the controller attached. Pass
  /// nullptr to leave record mode. Throws if a line index of the device
  /// does not fit 32 bits.
  void set_dram_log(std::vector<std::uint32_t>* log);

  /// x86 `clflush`: probes the LLC, writes back if dirty (write-back latency
  /// lands on the critical path, §3.2), invalidates everywhere. Returns the
  /// instruction latency.
  util::Cycle clflush(dram::PhysAddr addr, util::Cycle now);

  /// Evicts the line holding `addr` from the whole hierarchy by accessing a
  /// conflict set of `l3.ways` lines (the §3.3 "baseline attack" primitive).
  /// Returns the modeled eviction latency: serialized lookups plus
  /// MLP-overlapped DRAM fills. Functionally displaces the target line.
  ///
  /// `avoid_bank`: a careful attacker builds the eviction set from
  /// congruent lines that do NOT map to the signalling DRAM bank (DRAMA
  /// reverse-engineers the address mapping for exactly this reason) —
  /// otherwise the eviction's own fills would trash the row state being
  /// measured. When the mapping makes avoidance impossible (pure
  /// bank-interleaving aliases every congruent line into one bank), the
  /// colliding lines are used anyway and the resulting self-noise is real.
  util::Cycle evict_via_set(dram::PhysAddr addr, util::Cycle now,
                            std::optional<dram::BankId> avoid_bank =
                                std::nullopt);

  /// True if any level holds the line.
  [[nodiscard]] bool cached(dram::PhysAddr addr) const;

  /// Non-temporal store: bypasses fills (writes combine to DRAM) but still
  /// probes the hierarchy to maintain coherence. Returns latency.
  util::Cycle store_nontemporal(dram::PhysAddr addr, util::Cycle now);

  [[nodiscard]] const Cache& l1() const { return l1_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] const Cache& l3() const { return l3_; }

  /// Total lookup latency of a full traversal miss (L1+L2+L3), the
  /// cache-lookup overhead PiM operations avoid.
  [[nodiscard]] util::Cycle full_lookup_latency() const;

  void reset_stats();
  /// Drops all cached lines without writebacks (test setup helper).
  void drop_all();

 private:
  [[nodiscard]] LineAddr line_of(dram::PhysAddr addr) const {
    // Shift fast path (line size is a power of two in every configuration;
    // the divide fallback keeps odd sizes correct). A runtime-value udiv
    // here costs ~20 cycles on the single hottest line of the simulator.
    return line_shift_ != 0 ? addr >> line_shift_
                            : addr / config_.l1.line_bytes;
  }
  [[nodiscard]] dram::PhysAddr addr_of(LineAddr line) const {
    return line_shift_ != 0 ? line << line_shift_
                            : line * config_.l1.line_bytes;
  }

  /// Installs a line in L3/L2/L1 handling inclusive back-invalidation and
  /// dirty writebacks. `now` anchors any writeback DRAM traffic.
  void fill_all_levels(LineAddr line, util::Cycle now, bool dirty);
  void handle_l3_eviction(const Eviction& ev, util::Cycle now);
  void issue_prefetches(const std::vector<LineAddr>& candidates,
                        util::Cycle now);
  /// The one seam through which the hierarchy reaches DRAM. Inline so the
  /// record-mode check costs the miss path one predictable branch.
  dram::AccessResult dram_access(dram::PhysAddr addr, util::Cycle now) {
    // Exact only while this hierarchy is private to one actor and none of
    // its decisions reads `now` or a DRAM result.
    if (dram_log_ != nullptr) return record_dram(addr);
    return controller_->access(addr, now, actor_);
  }
  dram::AccessResult record_dram(dram::PhysAddr addr);

  HierarchyConfig config_;
  dram::MemoryController* controller_;
  dram::ActorId actor_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes); 0 = not pow2.
  Cache l1_;
  Cache l2_;
  Cache l3_;
  IpStridePrefetcher ip_stride_;
  StreamerPrefetcher streamer_;
  std::uint64_t prefetch_fills_ = 0;
  std::vector<std::uint32_t>* dram_log_ = nullptr;  ///< Record mode.
  /// Prefetch-candidate scratch, reused across accesses so the (very hot)
  /// miss path does not allocate. `access` is not reentrant, so one buffer
  /// per prefetcher suffices.
  std::vector<LineAddr> l1_pf_scratch_;
  std::vector<LineAddr> l2_pf_scratch_;
  /// Snapshot-time providers over the existing LevelStats counters: the
  /// access fast path is untouched (zero added instructions); the registry
  /// samples the stats structs only when a snapshot is taken. Null/empty
  /// outside an obs::Scope.
  obs::Registry* obs_registry_ = nullptr;
  std::vector<obs::ProviderId> obs_providers_;

 public:
  [[nodiscard]] std::uint64_t prefetch_fills() const {
    return prefetch_fills_;
  }
};

}  // namespace impact::cache
