// Per-process virtual memory with attack-relevant allocation policies.
//
// The covert channels need *memory massaging* (§4.1: "one process uses
// memory massaging techniques to place its data in the same bank as the
// other process"): the ability to obtain pages that map to chosen DRAM
// banks/rows. With the default bank-interleaved mapping a 4 KiB page falls
// entirely inside one row-buffer-sized chunk, hence inside one bank, which
// is what makes massaging work. The PuM attack additionally needs two
// virtual ranges whose physical pages span *all* banks at the same row
// index (§5.1), provided by `map_row_span`.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dram/address_mapping.hpp"
#include "dram/controller.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace impact::sys {

using VAddr = std::uint64_t;

/// The first `k` entries (all `pool` of them when `pool <= k`) of the
/// permutation of [0, pool) that a backward Fisher–Yates shuffle leaves,
/// starting from a[j] = j and driven by Xoshiro256(seed):
///
///   for i = pool..2: swap(a[i-1], a[rng.below(i)])
///
/// That loop writes a[0..k) last, so the prefix is found by making the same
/// pool - 1 draws and undoing the swaps from i = 2 upwards while following
/// only the k positions of interest. The cost is the draws; the scratch (3
/// bytes per draw and a bit per position) is freed on return, so only the
/// k entries are kept. `pool` is at most 2^24.
std::vector<std::uint32_t> shuffled_prefix(std::uint64_t seed,
                                           std::uint32_t pool,
                                           std::uint32_t k);

/// A contiguous virtual range handed out by the allocator.
struct VSpan {
  VAddr vaddr = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] VAddr end() const { return vaddr + bytes; }
};

class VirtualMemory {
  struct Process;  // Defined below; forward-declared for TranslationView.

 public:
  /// `mapping` defines how physical frames land in banks; it must outlive
  /// this object. `seed` drives the randomized default allocation order
  /// (real allocators hand out effectively arbitrary frames).
  VirtualMemory(const dram::AddressMapping& mapping, std::uint64_t seed,
                std::uint32_t page_bits = 12);

  [[nodiscard]] std::uint64_t page_bytes() const { return 1ull << page_bits_; }

  /// Maps `n` pages for `proc` from the randomized free list.
  VSpan map_pages(dram::ActorId proc, std::uint64_t n);

  /// Maps the pages covering row `row` of `bank` exactly.
  VSpan map_row(dram::ActorId proc, dram::BankId bank, dram::RowId row);

  /// Maps a virtual range whose physical pages cover row `row` in *every*
  /// bank (bank-interleaved mapping required): total_banks * row_bytes
  /// bytes, physically contiguous. With `huge` the range is backed by
  /// 2 MiB pages (it is physically contiguous, so the kernel can), which
  /// lets an attacker sweep thousands of banks without TLB thrash.
  VSpan map_row_span(dram::ActorId proc, dram::RowId row, bool huge = false);

  /// True when the page backing `vaddr` was mapped as a 2 MiB page.
  [[nodiscard]] bool is_huge(dram::ActorId proc, VAddr vaddr) const;

  /// Shared memory: maps the frames backing `span` (owned by `from`) into
  /// `to`'s address space at the same virtual addresses (the two graph
  /// instances of Fig. 11 share their input this way).
  void share(dram::ActorId from, dram::ActorId to, const VSpan& span);

  /// Translates; the page must have been mapped by `proc`.
  [[nodiscard]] dram::PhysAddr translate(dram::ActorId proc,
                                         VAddr vaddr) const;

  /// True if `proc` has a mapping for the page of `vaddr`.
  [[nodiscard]] bool is_mapped(dram::ActorId proc, VAddr vaddr) const;

  /// Cached translation handle for one process, built for hot replay and
  /// PEI loops that translate millions of addresses: the process record is
  /// resolved once (references into `processes_` are stable — only erasure
  /// would invalidate them, and processes are never erased) and repeat
  /// translations of the same page hit a small direct-mapped vpn->pfn memo
  /// instead of the page-table hash. The memo is sound because page tables
  /// are append-only: install() and share() refuse to remap an existing
  /// vpn, so a memoized pfn can never go stale. Results are bit-identical
  /// to VirtualMemory::translate / is_huge for the same process.
  class TranslationView {
   public:
    [[nodiscard]] dram::PhysAddr translate(VAddr vaddr) const {
      const std::uint64_t vpn = vaddr >> page_bits_;
      const std::size_t slot = vpn & (kMemoSlots - 1);
      if (memo_vpn_[slot] != vpn) {
        const auto it = process_->page_table.find(vpn);
        util::check(it != process_->page_table.end(),
                    "VirtualMemory: unmapped virtual address");
        memo_vpn_[slot] = vpn;
        memo_pfn_[slot] = it->second;
      }
      return (memo_pfn_[slot] << page_bits_) | (vaddr & page_mask_);
    }

    [[nodiscard]] bool is_huge(VAddr vaddr) const {
      for (const auto& r : process_->huge_ranges) {
        if (vaddr >= r.vaddr && vaddr < r.end()) return true;
      }
      return false;
    }

   private:
    friend class VirtualMemory;
    TranslationView(const Process* p, std::uint32_t page_bits)
        : process_(p),
          page_bits_(page_bits),
          page_mask_((1ull << page_bits) - 1) {
      memo_vpn_.fill(~std::uint64_t{0});
    }

    static constexpr std::size_t kMemoSlots = 64;
    const Process* process_;
    std::uint32_t page_bits_;
    std::uint64_t page_mask_;
    mutable std::array<std::uint64_t, kMemoSlots> memo_vpn_;
    mutable std::array<std::uint64_t, kMemoSlots> memo_pfn_{};
  };

  /// Builds a TranslationView for `proc`, creating its (empty) process
  /// record if needed. The view stays valid for this VirtualMemory's
  /// lifetime and sees pages mapped after it was built.
  [[nodiscard]] TranslationView view(dram::ActorId proc) {
    return TranslationView(&process(proc), page_bits_);
  }

  [[nodiscard]] std::uint64_t frames_total() const { return frames_total_; }
  [[nodiscard]] std::uint64_t frames_used() const { return frames_used_; }

 private:
  struct Process {
    VAddr next_vaddr = 0x10000000ull;
    std::unordered_map<std::uint64_t, std::uint64_t> page_table;  // vpn->pfn.
    std::vector<VSpan> huge_ranges;  // Ranges backed by 2 MiB pages.
  };

  Process& process(dram::ActorId proc);
  VAddr install(Process& p, const std::vector<std::uint64_t>& frames);
  std::uint64_t take_free_frame();
  /// Claims a specific frame; it must be free.
  void claim_frame(std::uint64_t frame);
  [[nodiscard]] bool frame_free(std::uint64_t frame) const;

  const dram::AddressMapping* mapping_;
  std::uint32_t page_bits_;
  std::uint64_t frames_total_;
  /// Claimed frames, a bitmap built 4096 frames at a time on first claim:
  /// one over a Table 2 device is 1 MiB, for a few hundred claimed frames.
  static constexpr std::uint64_t kLeafFrames = 4096;
  std::vector<std::unique_ptr<std::bitset<kLeafFrames>>> taken_;
  std::uint64_t frames_used_ = 0;
  // Randomized handout order: pool_base_ + shuffled_prefix(seed_,
  // pool_size_, n) for the n entries computed so far; n doubles when
  // take_free_frame runs past it.
  std::uint64_t seed_;
  std::uint64_t pool_base_ = 0;
  std::uint32_t pool_size_ = 0;
  std::vector<std::uint32_t> pool_order_;
  std::size_t pool_pos_ = 0;
  /// Once the pool is spent, frames are handed out lowest first; frames
  /// are never freed, so every frame below this cursor is taken.
  std::uint64_t scan_pos_ = 0;
  std::unordered_map<dram::ActorId, Process> processes_;
};

}  // namespace impact::sys
