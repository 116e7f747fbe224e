#include "sys/vmem.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/assert.hpp"

namespace impact::sys {

namespace {

/// Prefix computed by the constructor. The most any registered experiment
/// takes from one system is 512 frames (the 8192-bank Fig. 10 spy's
/// bookkeeping pages), so the prefix almost never grows. It is computed up
/// front rather than on the first map_pages so that the cost stays in
/// system construction, not in a timed attack run.
constexpr std::uint32_t kInitialPrefix = 1024;

}  // namespace

std::vector<std::uint32_t> shuffled_prefix(std::uint64_t seed,
                                           std::uint32_t pool,
                                           std::uint32_t k) {
  k = std::min(k, pool);
  if (k == 0) return {};
  // The eager shuffle's draws, in its order: draws[pool - i] is step i's.
  std::vector<std::uint32_t> draws(pool - 1);
  util::Xoshiro256 rng(seed);
  for (std::uint32_t i = pool; i > 1; --i) {
    draws[pool - i] = static_cast<std::uint32_t>(rng.below(i));
  }

  // Undo the swaps last-first. slot_at[q] is the prefix entry whose value
  // sits at position q at that point; when every swap is undone, a
  // position holds its original value q. Steps i <= k swap two positions
  // below k, so they run on a plain k-entry array.
  std::vector<std::uint32_t> slot_at(k);
  std::iota(slot_at.begin(), slot_at.end(), 0u);
  for (std::uint32_t i = 2; i <= k; ++i) {
    std::swap(slot_at[i - 1], slot_at[draws[pool - i]]);
  }

  // Steps i > k: the top position i - 1 holds no tracked value (each one
  // sits below k or at an earlier step's top, below i - 1), so a tracked
  // value moves only when the draw hits it, and then moves to i - 1. A bit
  // per position filters the draws; the map finds which value was hit.
  std::vector<std::uint64_t> tracked((pool + 63) / 64, 0);
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  slot_of.reserve(2 * static_cast<std::size_t>(k));
  for (std::uint32_t q = 0; q < k; ++q) {
    tracked[q / 64] |= 1ull << (q % 64);
    slot_of.emplace(q, slot_at[q]);
  }
  for (std::uint32_t i = k + 1; i <= pool; ++i) {
    const std::uint32_t r = draws[pool - i];
    if ((tracked[r / 64] >> (r % 64) & 1) == 0) continue;
    const auto hit = slot_of.find(r);
    const std::uint32_t slot = hit->second;
    slot_of.erase(hit);
    slot_of.emplace(i - 1, slot);
    tracked[r / 64] &= ~(1ull << (r % 64));
    tracked[(i - 1) / 64] |= 1ull << ((i - 1) % 64);
  }

  std::vector<std::uint32_t> prefix(k);
  for (const auto& [q, slot] : slot_of) prefix[slot] = q;
  return prefix;
}

VirtualMemory::VirtualMemory(const dram::AddressMapping& mapping,
                             std::uint64_t seed, std::uint32_t page_bits)
    : mapping_(&mapping), page_bits_(page_bits), seed_(seed) {
  util::check(page_bits_ >= 6 && page_bits_ <= 21,
              "VirtualMemory: page size out of the supported range");
  frames_total_ = mapping.capacity() >> page_bits_;
  util::check(frames_total_ > 0, "VirtualMemory: device smaller than a page");
  frame_taken_.assign(frames_total_, false);

  // Randomized handout order models the effectively arbitrary
  // physical-frame placement of a long-running system. The pool draws from
  // the upper half of the device so that row-targeted mappings (map_row /
  // map_row_span, which attacks aim at low row numbers) do not race with
  // random allocations for the same frames. The pool is capped at 2^20
  // frames; shuffled_prefix's cost grows with the pool (one draw per
  // frame), its memory only with the prefix.
  pool_base_ = frames_total_ / 2;
  pool_size_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(frames_total_ - pool_base_, 1ull << 20));
  pool_order_ = shuffled_prefix(seed_, pool_size_, kInitialPrefix);
}

VirtualMemory::Process& VirtualMemory::process(dram::ActorId proc) {
  auto [it, inserted] = processes_.try_emplace(proc);
  if (inserted) {
    // Separate the virtual ranges of different processes for readability.
    it->second.next_vaddr =
        0x10000000ull + static_cast<std::uint64_t>(proc) * 0x100000000ull;
  }
  return it->second;
}

bool VirtualMemory::frame_free(std::uint64_t frame) const {
  return frame < frames_total_ && !frame_taken_[frame];
}

void VirtualMemory::claim_frame(std::uint64_t frame) {
  util::check(frame_free(frame), "VirtualMemory: frame not free");
  frame_taken_[frame] = true;
  ++frames_used_;
}

std::uint64_t VirtualMemory::take_free_frame() {
  for (;;) {
    if (pool_pos_ == pool_order_.size()) {
      if (pool_order_.size() == pool_size_) break;
      pool_order_ = shuffled_prefix(
          seed_, pool_size_, 2 * static_cast<std::uint32_t>(pool_pos_));
    }
    const std::uint64_t f = pool_base_ + pool_order_[pool_pos_++];
    if (!frame_taken_[f]) {
      claim_frame(f);
      return f;
    }
  }
  // Shuffle pool exhausted: the lowest free frame.
  for (; scan_pos_ < frames_total_; ++scan_pos_) {
    if (!frame_taken_[scan_pos_]) {
      claim_frame(scan_pos_);
      return scan_pos_++;
    }
  }
  util::check(false, "VirtualMemory: out of physical frames");
  return 0;
}

VAddr VirtualMemory::install(Process& p,
                             const std::vector<std::uint64_t>& frames) {
  const VAddr base = p.next_vaddr;
  VAddr v = base;
  for (std::uint64_t f : frames) {
    // Page tables are append-only (TranslationView memoizes vpn->pfn on
    // that guarantee): the bump allocator hands out fresh pages, so an
    // existing entry here would be a bookkeeping bug.
    const auto [it, inserted] = p.page_table.emplace(v >> page_bits_, f);
    util::check(inserted, "VirtualMemory: page already mapped");
    v += page_bytes();
  }
  p.next_vaddr = v;
  return base;
}

VSpan VirtualMemory::map_pages(dram::ActorId proc, std::uint64_t n) {
  util::check(n > 0, "VirtualMemory::map_pages: n must be positive");
  Process& p = process(proc);
  std::vector<std::uint64_t> frames;
  frames.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) frames.push_back(take_free_frame());
  return VSpan{install(p, frames), n * page_bytes()};
}

VSpan VirtualMemory::map_in_bank(dram::ActorId proc, dram::BankId bank) {
  Process& p = process(proc);
  // Scan frames for one whose first byte decodes into `bank`. A page never
  // crosses a row-chunk boundary when page <= row size; check both ends to
  // be safe for any geometry.
  for (std::uint64_t f = 0; f < frames_total_; ++f) {
    if (frame_taken_[f]) continue;
    const dram::PhysAddr base = f << page_bits_;
    const auto lo = mapping_->decode(base);
    const auto hi = mapping_->decode(base + page_bytes() - 1);
    if (lo.bank == bank && hi.bank == bank) {
      claim_frame(f);
      return VSpan{install(p, {f}), page_bytes()};
    }
  }
  util::check(false, "VirtualMemory::map_in_bank: no free frame in bank");
  return {};
}

VSpan VirtualMemory::map_row(dram::ActorId proc, dram::BankId bank,
                             dram::RowId row) {
  Process& p = process(proc);
  const std::uint64_t row_bytes = mapping_->row_bytes();
  const dram::PhysAddr row_base = mapping_->row_base(bank, row);
  util::check(row_bytes % page_bytes() == 0 || page_bytes() % row_bytes == 0,
              "VirtualMemory::map_row: page/row sizes incompatible");
  const std::uint64_t pages =
      std::max<std::uint64_t>(1, row_bytes / page_bytes());
  std::vector<std::uint64_t> frames;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const std::uint64_t f = (row_base + i * page_bytes()) >> page_bits_;
    claim_frame(f);
    frames.push_back(f);
  }
  return VSpan{install(p, frames), pages * page_bytes()};
}

VSpan VirtualMemory::map_row_span(dram::ActorId proc, dram::RowId row,
                                  bool huge) {
  util::check(mapping_->scheme() == dram::MappingScheme::kBankInterleaved,
              "map_row_span requires the bank-interleaved mapping");
  Process& p = process(proc);
  const std::uint64_t row_bytes = mapping_->row_bytes();
  const std::uint64_t banks = mapping_->banks();
  const dram::PhysAddr base =
      static_cast<dram::PhysAddr>(row) * banks * row_bytes;
  const std::uint64_t total = banks * row_bytes;
  util::check(total % page_bytes() == 0,
              "map_row_span: span must be page-aligned");
  std::vector<std::uint64_t> frames;
  for (std::uint64_t off = 0; off < total; off += page_bytes()) {
    const std::uint64_t f = (base + off) >> page_bits_;
    claim_frame(f);
    frames.push_back(f);
  }
  const VSpan span{install(p, frames), total};
  if (huge) p.huge_ranges.push_back(span);
  return span;
}

bool VirtualMemory::is_huge(dram::ActorId proc, VAddr vaddr) const {
  const auto pit = processes_.find(proc);
  if (pit == processes_.end()) return false;
  for (const auto& r : pit->second.huge_ranges) {
    if (vaddr >= r.vaddr && vaddr < r.end()) return true;
  }
  return false;
}

void VirtualMemory::share(dram::ActorId from, dram::ActorId to,
                          const VSpan& span) {
  util::check(from != to, "VirtualMemory::share: same process");
  const auto fit = processes_.find(from);
  util::check(fit != processes_.end(), "VirtualMemory::share: unknown owner");
  Process& dst = process(to);
  for (VAddr v = span.vaddr; v < span.end(); v += page_bytes()) {
    const auto it = fit->second.page_table.find(v >> page_bits_);
    util::check(it != fit->second.page_table.end(),
                "VirtualMemory::share: span not fully mapped by owner");
    // Append-only page tables (see install): re-sharing the same span is
    // idempotent, but remapping an existing vpn to a different frame would
    // invalidate TranslationView memos and is refused.
    const auto [dit, inserted] =
        dst.page_table.emplace(v >> page_bits_, it->second);
    util::check(inserted || dit->second == it->second,
                "VirtualMemory::share: vpn already mapped to another frame");
  }
  // Keep the destination's bump allocator clear of the shared range.
  dst.next_vaddr = std::max(dst.next_vaddr, span.end());
}

dram::PhysAddr VirtualMemory::translate(dram::ActorId proc,
                                        VAddr vaddr) const {
  const auto pit = processes_.find(proc);
  util::check(pit != processes_.end(), "VirtualMemory: unknown process");
  const auto it = pit->second.page_table.find(vaddr >> page_bits_);
  util::check(it != pit->second.page_table.end(),
              "VirtualMemory: unmapped virtual address");
  return (it->second << page_bits_) | (vaddr & (page_bytes() - 1));
}

bool VirtualMemory::is_mapped(dram::ActorId proc, VAddr vaddr) const {
  const auto pit = processes_.find(proc);
  if (pit == processes_.end()) return false;
  return pit->second.page_table.contains(vaddr >> page_bits_);
}

}  // namespace impact::sys
