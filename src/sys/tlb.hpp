// Two-level data TLB with page-table-walk cost (Table 2 MMU).
//
// The TLB sits on every CPU-side access path (loads/stores, clflush target
// translation, eviction-set accesses) and contributes both latency and —
// on walks — DRAM traffic noise. PiM operations still translate (the PEI
// interface uses virtual addresses), so TLB behavior is shared by all
// attacks; what PiM skips is the *cache hierarchy*, not translation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/replacement.hpp"
#include "obs/registry.hpp"
#include "util/units.hpp"

namespace impact::sys {

struct TlbLevelConfig {
  std::uint32_t entries = 64;
  std::uint32_t ways = 4;
  util::Cycle latency = 1;

  friend bool operator==(const TlbLevelConfig&,
                         const TlbLevelConfig&) = default;
};

struct TlbConfig {
  TlbLevelConfig l1{64, 4, 1};        // L1 DTLB (4 KiB pages).
  TlbLevelConfig l1_huge{32, 4, 1};   // L1 DTLB (2 MiB pages).
  TlbLevelConfig l2{1536, 12, 12};    // Unified L2 TLB.
  util::Cycle walk_latency = 80;      ///< Page-table walk (4 cached levels).
  std::uint32_t page_bits = 12;       ///< 4 KiB pages.
  std::uint32_t huge_page_bits = 21;  ///< 2 MiB pages.

  friend bool operator==(const TlbConfig&, const TlbConfig&) = default;
};

struct TlbResult {
  util::Cycle latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  bool walked = false;
};

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t walks = 0;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig config = {});
  /// Flushes obs:: snapshot providers (see cache::Hierarchy — same
  /// pattern: the translate fast path is never touched, TlbStats are
  /// sampled at snapshot time). Providers capture `this`: not copyable.
  ~Tlb();
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  /// Translates the page of `vaddr`, updating both levels. `huge` selects
  /// the 2 MiB-page path (separate L1 array, shared L2).
  TlbResult translate(std::uint64_t vaddr, bool huge = false);

  /// Pre-installs the page (warm-up; §5.1 warms all structures).
  void warm(std::uint64_t vaddr, bool huge = false);

  [[nodiscard]] const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TlbStats{}; }

 private:
  /// One TLB level: flat set-associative tag array with inline LRU
  /// metadata (same contiguous layout as cache::Cache — one tags run and
  /// one metadata byte run, sliced per set). Set indexing is mask-based
  /// when the set count is a power of two (all Table 2 TLB shapes).
  struct Level {
    explicit Level(const TlbLevelConfig& c);
    bool lookup(std::uint64_t page);
    void fill(std::uint64_t page);
    [[nodiscard]] std::uint32_t set_of(std::uint64_t page) const {
      return pow2_sets ? (static_cast<std::uint32_t>(page) & set_mask)
                       : static_cast<std::uint32_t>(page % sets);
    }
    [[nodiscard]] std::span<std::uint8_t> repl_slice(std::size_t base) {
      return {repl_meta.data() + base, ways};
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t set_mask = 0;
    bool pow2_sets = false;
    std::vector<std::uint64_t> tags;       // sets*ways; kInvalid when empty.
    std::vector<std::uint8_t> repl_meta;   // sets*ways LRU bytes.
    static constexpr std::uint64_t kInvalid = ~0ull;
  };

  TlbConfig config_;
  Level l1_;
  Level l1_huge_;
  Level l2_;
  TlbStats stats_;
  obs::Registry* obs_registry_ = nullptr;
  std::vector<obs::ProviderId> obs_providers_;
};

}  // namespace impact::sys
