// Unit tests: virtual memory — mapping policies, massaging, sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "dram/address_mapping.hpp"
#include "sys/system.hpp"
#include "sys/vmem.hpp"
#include "util/rng.hpp"

namespace impact::sys {
namespace {

class VmemTest : public ::testing::Test {
 protected:
  VmemTest()
      : config_(),
        mapping_(config_, dram::MappingScheme::kBankInterleaved),
        vmem_(mapping_, /*seed=*/5) {}

  dram::DramConfig config_;
  dram::AddressMapping mapping_;
  VirtualMemory vmem_;
};

TEST_F(VmemTest, MapPagesTranslates) {
  const auto span = vmem_.map_pages(1, 4);
  EXPECT_EQ(span.bytes, 4 * 4096u);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    EXPECT_TRUE(vmem_.is_mapped(1, v));
    EXPECT_LT(vmem_.translate(1, v), mapping_.capacity());
  }
  EXPECT_FALSE(vmem_.is_mapped(1, span.end()));
}

TEST_F(VmemTest, TranslatePreservesPageOffset) {
  const auto span = vmem_.map_pages(1, 1);
  const auto base = vmem_.translate(1, span.vaddr);
  EXPECT_EQ(vmem_.translate(1, span.vaddr + 123), base + 123);
}

TEST_F(VmemTest, DistinctProcessesGetDistinctFrames) {
  const auto a = vmem_.map_pages(1, 8);
  const auto b = vmem_.map_pages(2, 8);
  std::set<dram::PhysAddr> frames;
  for (VAddr v = a.vaddr; v < a.end(); v += 4096) {
    frames.insert(vmem_.translate(1, v) >> 12);
  }
  for (VAddr v = b.vaddr; v < b.end(); v += 4096) {
    EXPECT_FALSE(frames.contains(vmem_.translate(2, v) >> 12));
  }
}

TEST_F(VmemTest, UnknownTranslationThrows) {
  EXPECT_THROW((void)vmem_.translate(1, 0xdeadbeef), std::invalid_argument);
  const auto span = vmem_.map_pages(1, 1);
  EXPECT_THROW((void)vmem_.translate(2, span.vaddr), std::invalid_argument);
}

TEST_F(VmemTest, MapRowCoversExactRow) {
  const auto span = vmem_.map_row(1, 9, 33);
  EXPECT_EQ(span.bytes, config_.row_bytes);
  const auto lo = mapping_.decode(vmem_.translate(1, span.vaddr));
  const auto hi =
      mapping_.decode(vmem_.translate(1, span.end() - 1));
  EXPECT_EQ(lo.bank, 9u);
  EXPECT_EQ(lo.row, 33u);
  EXPECT_EQ(lo.col, 0u);
  EXPECT_EQ(hi.bank, 9u);
  EXPECT_EQ(hi.row, 33u);
  EXPECT_EQ(hi.col, config_.row_bytes - 1);
}

TEST_F(VmemTest, MapRowTwiceConflicts) {
  (void)vmem_.map_row(1, 9, 33);
  EXPECT_THROW((void)vmem_.map_row(2, 9, 33), std::invalid_argument);
}

TEST_F(VmemTest, MapRowSpanHitsEveryBankAtRow) {
  const auto span = vmem_.map_row_span(1, 5);
  EXPECT_EQ(span.bytes,
            static_cast<std::uint64_t>(config_.total_banks()) *
                config_.row_bytes);
  for (std::uint32_t b = 0; b < config_.total_banks(); ++b) {
    const auto loc = mapping_.decode(
        vmem_.translate(1, span.vaddr + b * config_.row_bytes));
    EXPECT_EQ(loc.bank, b);
    EXPECT_EQ(loc.row, 5u);
    EXPECT_EQ(loc.col, 0u);
  }
}

TEST_F(VmemTest, HugePagesAreFlagged) {
  const auto normal = vmem_.map_row_span(1, 6);
  const auto huge = vmem_.map_row_span(1, 7, /*huge=*/true);
  EXPECT_FALSE(vmem_.is_huge(1, normal.vaddr));
  EXPECT_TRUE(vmem_.is_huge(1, huge.vaddr));
  EXPECT_TRUE(vmem_.is_huge(1, huge.end() - 1));
  EXPECT_FALSE(vmem_.is_huge(1, huge.end()));
  EXPECT_FALSE(vmem_.is_huge(2, huge.vaddr));  // Per-process property.
}

TEST_F(VmemTest, ShareAliasesFrames) {
  const auto span = vmem_.map_pages(1, 2);
  vmem_.share(1, 2, span);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    EXPECT_EQ(vmem_.translate(1, v), vmem_.translate(2, v));
  }
}

TEST_F(VmemTest, ShareRequiresMappedSpan) {
  const auto span = vmem_.map_pages(1, 1);
  const VSpan bogus{span.vaddr + 4096, 4096};
  EXPECT_THROW(vmem_.share(1, 2, bogus), std::invalid_argument);
  EXPECT_THROW(vmem_.share(1, 1, span), std::invalid_argument);
}

TEST_F(VmemTest, RandomAllocationsAvoidLowRows) {
  // Random handout draws from the upper half of the device, so attack rows
  // (low row numbers) stay claimable.
  const auto span = vmem_.map_pages(1, 64);
  for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
    const auto loc = mapping_.decode(vmem_.translate(1, v));
    EXPECT_GE(loc.row, config_.rows_per_bank / 2 / config_.total_banks());
  }
  EXPECT_NO_THROW((void)vmem_.map_row(2, 0, 0));
}

TEST_F(VmemTest, FrameAccounting) {
  const auto used_before = vmem_.frames_used();
  (void)vmem_.map_pages(1, 10);
  EXPECT_EQ(vmem_.frames_used(), used_before + 10);
  EXPECT_EQ(vmem_.frames_total(), mapping_.capacity() / 4096);
}

TEST(VmemSmallDevice, ExhaustionThrows) {
  dram::DramConfig config;
  config.ranks = 1;
  config.banks_per_rank = 1;
  config.rows_per_bank = 2;  // 2 rows x 8 KiB = 4 frames.
  config.subarray_rows = 2;
  dram::AddressMapping mapping(config,
                               dram::MappingScheme::kBankInterleaved);
  VirtualMemory vmem(mapping, 1);
  (void)vmem.map_pages(1, 4);
  EXPECT_THROW((void)vmem.map_pages(1, 1), std::invalid_argument);
}

/// The eager shuffle VirtualMemory used to run over its whole pool, kept as
/// the reference for shuffled_prefix.
std::vector<std::uint32_t> eager_shuffle(std::uint64_t seed,
                                         std::uint32_t pool) {
  std::vector<std::uint32_t> a(pool);
  std::iota(a.begin(), a.end(), 0u);
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = pool; i > 1; --i) {
    std::swap(a[i - 1], a[rng.below(i)]);
  }
  return a;
}

TEST(ShuffledPrefix, MatchesEagerShuffle) {
  for (const std::uint32_t pool :
       {1u, 2u, 3u, 17u, 1000u, 1u << 18, 1u << 20}) {
    for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
      const auto full = eager_shuffle(seed, pool);
      for (const std::uint32_t k : {1u, 64u, 1024u, 4096u}) {
        const auto prefix = shuffled_prefix(seed, pool, k);
        const std::size_t n = std::min(k, pool);
        ASSERT_EQ(prefix.size(), n) << "pool " << pool << " k " << k;
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()))
            << "pool " << pool << " seed " << seed << " k " << k;
      }
    }
  }
  EXPECT_TRUE(shuffled_prefix(7, 0, 16).empty());
  EXPECT_TRUE(shuffled_prefix(7, 16, 0).empty());
  // Draws are kept in three bytes.
  EXPECT_THROW((void)shuffled_prefix(7, (1u << 24) + 1, 16),
               std::invalid_argument);
}

/// A device whose upper half (the random pool) is 2^13 frames: small enough
/// to exhaust, larger than the constructor's 1024-entry prefix.
dram::DramConfig small_device() {
  dram::DramConfig config;
  config.ranks = 1;
  config.banks_per_rank = 16;
  config.rows_per_bank = 512;  // 16 banks x 512 rows x 8 KiB = 2^14 frames.
  return config;
}

std::vector<std::uint64_t> frames_of(const VirtualMemory& vmem,
                                     dram::ActorId proc, const VSpan& span) {
  std::vector<std::uint64_t> frames;
  for (VAddr v = span.vaddr; v < span.end(); v += vmem.page_bytes()) {
    frames.push_back(vmem.translate(proc, v) >> 12);
  }
  return frames;
}

TEST(VmemPool, PrefixGrowsInSeededOrderAndSkipsTakenFrames) {
  const dram::DramConfig config = small_device();
  dram::AddressMapping mapping(config,
                               dram::MappingScheme::kBankInterleaved);
  VirtualMemory vmem(mapping, 9);
  const std::uint64_t base = vmem.frames_total() / 2;
  const auto order = eager_shuffle(9, vmem.frames_total() - base);

  // A row-targeted mapping claims a frame the random order reaches later
  // (its 1500th): the handout skips it rather than failing.
  const auto loc = mapping.decode((base + order[1500]) << 12);
  const auto row = vmem.map_row(2, loc.bank, loc.row);
  std::set<std::uint64_t> taken;
  for (const auto f : frames_of(vmem, 2, row)) taken.insert(f);
  ASSERT_TRUE(taken.contains(base + order[1500]));

  std::vector<std::uint64_t> expected;
  for (const std::uint32_t q : order) {
    if (expected.size() == 3000) break;
    if (!taken.contains(base + q)) expected.push_back(base + q);
  }
  std::vector<std::uint64_t> got;
  for (const std::uint64_t n : {1000u, 24u, 1976u}) {  // Past 1024 and 2048.
    const auto frames = frames_of(vmem, 1, vmem.map_pages(1, n));
    got.insert(got.end(), frames.begin(), frames.end());
  }
  EXPECT_EQ(got, expected);
}

TEST(VmemPool, ExhaustedPoolFallsBackToLowestFreeFrames) {
  const dram::DramConfig config = small_device();
  dram::AddressMapping mapping(config,
                               dram::MappingScheme::kBankInterleaved);
  VirtualMemory vmem(mapping, 3);
  const std::uint64_t total = vmem.frames_total();
  const std::uint64_t base = total / 2;
  (void)vmem.map_row(2, 0, 0);  // Frames 0 and 1.
  const auto pool = vmem.map_pages(1, total - base);
  std::set<std::uint64_t> pool_frames;
  for (const auto f : frames_of(vmem, 1, pool)) pool_frames.insert(f);
  EXPECT_EQ(pool_frames.size(), total - base);
  EXPECT_EQ(*pool_frames.begin(), base);

  // The pool is spent: frames come lowest first, skipping taken ones.
  (void)vmem.map_row(2, 0, 1);  // Frames 32 and 33 (16 banks x 2 pages).
  const auto rest = frames_of(vmem, 1, vmem.map_pages(1, 40));
  std::vector<std::uint64_t> expected;
  for (std::uint64_t f = 2; expected.size() < 40; ++f) {
    if (f != 32 && f != 33) expected.push_back(f);
  }
  EXPECT_EQ(rest, expected);
  (void)vmem.map_pages(1, base - 44);
  EXPECT_EQ(vmem.frames_used(), total);
  EXPECT_THROW((void)vmem.map_pages(1, 1), std::invalid_argument);
}

/// FNV-1a over the frames of the first 4096 pages map_pages hands out.
std::uint64_t first_frames_digest(VirtualMemory& vmem) {
  std::uint64_t h = 14695981039346656037ull;
  const auto span = vmem.map_pages(1, 4096);
  for (const std::uint64_t f : frames_of(vmem, 1, span)) {
    h = (h ^ f) * 1099511628211ull;
  }
  return h;
}

// The constants were computed with the eager full-pool shuffle, before
// shuffled_prefix replaced it: any change to the handout order shows here.
TEST(VmemPool, Table2HandoutPin) {
  MemorySystem system(SystemConfig{});  // Table 2, seed 42.
  EXPECT_EQ(first_frames_digest(system.vmem()), 0x2b89f6fb9dea083full);
}

TEST(VmemPool, Fig10SpyHandoutPin) {
  SystemConfig config;  // ReadMappingSpy's 1024-bank geometry.
  config.dram.channels = 1;
  config.dram.ranks = 1;
  config.dram.banks_per_rank = 1024;
  config.dram.rows_per_bank = 256;
  config.dram.subarray_rows = std::min(config.dram.subarray_rows, 256u);
  config.seed = 1234;
  MemorySystem system(config);
  EXPECT_EQ(first_frames_digest(system.vmem()), 0x1c5fbe33fa1904b5ull);
}

}  // namespace
}  // namespace impact::sys
