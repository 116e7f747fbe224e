// Unit tests: TLB, timers, synchronization primitives, MemorySystem paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "attacks/registry.hpp"
#include "cache/hierarchy.hpp"
#include "obs/scope.hpp"
#include "sys/sync.hpp"
#include "sys/system.hpp"
#include "sys/timer.hpp"
#include "sys/tlb.hpp"

namespace impact::sys {
namespace {

TEST(TlbTest, MissWalkThenHits) {
  Tlb tlb;
  const auto miss = tlb.translate(0x1000);
  EXPECT_TRUE(miss.walked);
  const auto hit = tlb.translate(0x1000);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_LT(hit.latency, miss.latency);
  // Same page, different offset: still a hit.
  EXPECT_TRUE(tlb.translate(0x1FFF).l1_hit);
  // Different page: miss again.
  EXPECT_FALSE(tlb.translate(0x2000).l1_hit);
}

TEST(TlbTest, L2CatchesL1Overflow) {
  TlbConfig config;
  config.l1 = {4, 4, 1};  // Tiny L1: one set.
  Tlb tlb(config);
  for (std::uint64_t p = 0; p < 8; ++p) (void)tlb.translate(p << 12);
  // Page 0 fell out of L1 but is in L2.
  const auto r = tlb.translate(0);
  EXPECT_FALSE(r.l1_hit);
  EXPECT_TRUE(r.l2_hit);
}

TEST(TlbTest, WarmPreloadsEntries) {
  Tlb tlb;
  tlb.warm(0x5000);
  EXPECT_TRUE(tlb.translate(0x5000).l1_hit);
  EXPECT_EQ(tlb.stats().walks, 0u);
}

TEST(TlbTest, HugePagesUseSeparateArray) {
  Tlb tlb;
  tlb.warm(0x200000, /*huge=*/true);
  EXPECT_TRUE(tlb.translate(0x200000, true).l1_hit);
  // The whole 2 MiB page hits one entry.
  EXPECT_TRUE(tlb.translate(0x3FFFFF, true).l1_hit);
  // The same address as a 4 KiB translation is unrelated.
  EXPECT_FALSE(tlb.translate(0x200000, false).l1_hit);
}

TEST(TlbTest, StatsAccumulate) {
  Tlb tlb;
  (void)tlb.translate(0x1000);
  (void)tlb.translate(0x1000);
  EXPECT_EQ(tlb.stats().accesses, 2u);
  EXPECT_EQ(tlb.stats().walks, 1u);
  EXPECT_EQ(tlb.stats().l1_hits, 1u);
  tlb.reset_stats();
  EXPECT_EQ(tlb.stats().accesses, 0u);
}

TEST(TimerTest, MeasurementOverheadMatchesReadPair) {
  Timestamp ts;
  util::Cycle clock = 0;
  const auto t0 = ts.read(clock);
  const auto t1 = ts.read_fast(clock);
  EXPECT_EQ(t1 - t0, 24u);  // Second read's cost only.
  EXPECT_EQ(clock, ts.measurement_overhead());
}

TEST(SemaphoreTest, WaitBlocksUntilPost) {
  SimSemaphore sem(0, /*op_cost=*/30);
  const auto post_done = sem.post(1000);
  EXPECT_EQ(post_done, 1030u);
  // Early waiter is pulled forward to the post's release time.
  EXPECT_EQ(sem.wait(500), 1060u);
}

TEST(SemaphoreTest, LateWaiterKeepsItsClock) {
  SimSemaphore sem(0, 30);
  (void)sem.post(1000);
  EXPECT_EQ(sem.wait(5000), 5030u);
}

TEST(SemaphoreTest, CountsPendingPosts) {
  SimSemaphore sem(2, 10);
  EXPECT_EQ(sem.value(), 2u);
  (void)sem.wait(0);
  (void)sem.wait(0);
  EXPECT_EQ(sem.value(), 0u);
  EXPECT_THROW((void)sem.wait(0), std::invalid_argument);
}

TEST(SemaphoreTest, FifoOrdering) {
  SimSemaphore sem(0, 0);
  (void)sem.post(100);
  (void)sem.post(900);
  EXPECT_EQ(sem.wait(0), 100u);
  EXPECT_EQ(sem.wait(0), 900u);
}

TEST(BarrierTest, SyncsToLaterArrival) {
  SimBarrier barrier(60);
  util::Cycle a = 100;
  util::Cycle b = 500;
  barrier.sync(a, b);
  EXPECT_EQ(a, 560u);
  EXPECT_EQ(b, 560u);
}

class SystemPathTest : public ::testing::Test {
 protected:
  SystemPathTest() : system_(SystemConfig{}) {
    span_ = system_.vmem().map_row(1, 3, 40);
    system_.warm_span(1, span_);
  }

  MemorySystem system_;
  VSpan span_;
};

TEST_F(SystemPathTest, LoadGoesThroughCaches) {
  util::Cycle clock = 0;
  const auto cold = system_.load(1, span_.vaddr, clock);
  EXPECT_EQ(cold.level, cache::HitLevel::kMemory);
  const auto hot = system_.load(1, span_.vaddr, clock);
  EXPECT_EQ(hot.level, cache::HitLevel::kL1);
  EXPECT_LT(hot.latency, cold.latency);
}

TEST_F(SystemPathTest, DirectAccessSkipsCaches) {
  util::Cycle clock = 0;
  (void)system_.load(1, span_.vaddr, clock);  // Cache the line.
  const auto direct = system_.direct_access(1, span_.vaddr, clock);
  // Despite being cached, the direct path reaches DRAM (a row hit).
  EXPECT_EQ(direct.level, cache::HitLevel::kMemory);
  EXPECT_EQ(direct.outcome, dram::RowBufferOutcome::kHit);
}

TEST_F(SystemPathTest, DirectHitVsConflictMarginSurvivesInstrumentation) {
  util::Cycle clock = 0;
  const auto other = system_.vmem().map_row(1, 3, 41);
  system_.warm_span(1, other);
  (void)system_.direct_access(1, span_.vaddr, clock);
  const auto hit = system_.direct_access(1, span_.vaddr, clock);
  (void)system_.direct_access(1, other.vaddr, clock);
  const auto conflict = system_.direct_access(1, span_.vaddr, clock);
  EXPECT_EQ(conflict.latency - hit.latency,
            system_.controller().timing().trp +
                system_.controller().timing().trcd);
}

TEST_F(SystemPathTest, DmaAddsDriverOverhead) {
  util::Cycle clock = 0;
  const auto direct = system_.direct_access(1, span_.vaddr, clock);
  const auto dma = system_.dma_access(1, span_.vaddr, clock);
  EXPECT_GT(dma.latency, direct.latency);
  EXPECT_GE(dma.latency, system_.config().dma.per_transfer_overhead);
}

TEST_F(SystemPathTest, ClflushForcesNextLoadToMemory) {
  util::Cycle clock = 0;
  (void)system_.load(1, span_.vaddr, clock);
  (void)system_.clflush(1, span_.vaddr, clock);
  const auto r = system_.load(1, span_.vaddr, clock);
  EXPECT_EQ(r.level, cache::HitLevel::kMemory);
}

TEST_F(SystemPathTest, StoreThenClflushWritesBack) {
  util::Cycle clock = 0;
  (void)system_.store(1, span_.vaddr, clock);
  const auto clean_clock = clock;
  const auto wb_latency = system_.clflush(1, span_.vaddr, clock);
  (void)clean_clock;
  // Dirty flush costs more than an LLC probe alone.
  EXPECT_GT(wb_latency,
            static_cast<util::Cycle>(
                system_.hierarchy(1).config().l3.latency));
}

TEST_F(SystemPathTest, PerActorHierarchiesAreIsolated) {
  util::Cycle clock = 0;
  (void)system_.load(1, span_.vaddr, clock);
  // Actor 2 shares no cache with actor 1; it must miss to memory on the
  // same physical line (mapped via sharing).
  system_.vmem().share(1, 2, span_);
  util::Cycle clock2 = 0;
  const auto r = system_.load(2, span_.vaddr, clock2);
  EXPECT_EQ(r.level, cache::HitLevel::kMemory);
}

TEST_F(SystemPathTest, WalkTrafficTouchesDram) {
  auto& mc = system_.controller();
  mc.reset_stats();
  system_.charge_walk_traffic(1, 0x123456789, true, 0);
  EXPECT_EQ(mc.total_stats().accesses(), 1u);
  system_.charge_walk_traffic(1, 0x123456789, false, 0);
  EXPECT_EQ(mc.total_stats().accesses(), 1u);
}

// --- A hierarchy is built on its actor's first CPU-side access ----------

TEST(LazyHierarchy, CovertChannelSetupBuildsNone) {
  // IMPACT's PiM paths bypass the caches, so neither channel's setup or
  // calibration needs a hierarchy.
  for (const attacks::AttackKind kind :
       {attacks::AttackKind::kImpactPnm, attacks::AttackKind::kImpactPum}) {
    SCOPED_TRACE(attacks::to_string(kind));
    SystemConfig config;
    config.mapping = attacks::recommended_mapping(kind);
    MemorySystem system(config);
    auto attack = attacks::make_attack(kind, system);
    (void)attack->recalibrate();
    EXPECT_EQ(system.hierarchy_builds(), 0u);
  }
}

TEST(LazyHierarchy, TranslateOnlyActorListsZeroCacheCounters) {
  obs::Scope scope;
  MemorySystem system{SystemConfig{}};
  const VSpan span = system.vmem().map_row(1, 3, 40);
  system.warm_span(1, span);
  (void)system.translate(1, span.vaddr);
  EXPECT_EQ(system.hierarchy_builds(), 0u);
  const obs::Snapshot snap = scope.snapshot();
  for (const std::string_view name : cache::kCounterNames) {
    const auto it = snap.counters.find(std::string(name));
    ASSERT_NE(it, snap.counters.end()) << name;
    EXPECT_EQ(it->second, 0u) << name;
  }
}

/// FNV-1a over a load/store sequence on actor 1 and the counters it leaves.
/// `eager` requests the hierarchy before anything else; otherwise the
/// actor only translates until its first load.
std::uint64_t cpu_path_digest(bool eager) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  std::uint64_t builds = 0;
  {
    obs::Scope scope;
    MemorySystem system{SystemConfig{}};
    if (eager) (void)system.hierarchy(1);
    const VSpan span = system.vmem().map_pages(1, 64);
    system.warm_span(1, span);
    for (VAddr v = span.vaddr; v < span.end(); v += 4096) {
      (void)system.translate(1, v);
    }
    util::Cycle clock = 0;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      const VAddr v = span.vaddr + (i * 2654435761ull) % span.bytes;
      const PathResult r = i % 3 == 0 ? system.store(1, v, clock, i % 7)
                                      : system.load(1, v, clock, i % 7);
      add(r.latency);
      add(static_cast<std::uint64_t>(r.level));
      add(static_cast<std::uint64_t>(r.outcome));
    }
    add(clock);
    builds = system.hierarchy_builds();
    for (const auto& [name, value] : scope.snapshot().counters) {
      for (const char c : name) add(static_cast<unsigned char>(c));
      add(value);
    }
  }
  EXPECT_EQ(builds, 1u);
  return h;
}

TEST(LazyHierarchy, LoadAfterTranslateOnlyUseMatchesEagerBuild) {
  EXPECT_EQ(cpu_path_digest(/*eager=*/false), cpu_path_digest(/*eager=*/true));
}

TEST(SystemConfigTest, DescribeMentionsKeyParameters) {
  SystemConfig config;
  const auto s = config.describe();
  EXPECT_NE(s.find("2.6 GHz"), std::string::npos);
  EXPECT_NE(s.find("64 banks total"), std::string::npos);
  EXPECT_NE(s.find("open-row"), std::string::npos);
}

TEST(SystemConfigTest, CacheScaleShrinksHierarchy) {
  SystemConfig config;
  config.cache_scale = 64;
  MemorySystem system(config);
  EXPECT_EQ(system.hierarchy(1).config().l3.size_bytes,
            (8ull << 20) / 64);
}

}  // namespace
}  // namespace impact::sys
