// Unit tests: PMU locality monitor, PEI dispatcher, RowClone unit,
// off-chip predictor.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "obs/scope.hpp"
#include "pim/locality_monitor.hpp"
#include "pim/offchip_predictor.hpp"
#include "pim/pei.hpp"
#include "pim/rowclone.hpp"
#include "sys/system.hpp"

namespace impact::pim {
namespace {

TEST(LocalityMonitor, ColdBlockGoesToMemory) {
  LocalityMonitor pmu;
  EXPECT_EQ(pmu.decide(100), PeiPlacement::kMemory);
  EXPECT_EQ(pmu.stats().allocations, 1u);
}

TEST(LocalityMonitor, IgnoreFlagSkipsFirstHit) {
  LocalityMonitor pmu;
  (void)pmu.decide(100);  // Allocate with ignore flag.
  EXPECT_EQ(pmu.decide(100), PeiPlacement::kMemory);  // Ignored first hit.
  EXPECT_EQ(pmu.stats().ignored_first_hits, 1u);
}

TEST(LocalityMonitor, HotBlockMovesToHost) {
  LocalityMonitorConfig config;
  config.hot_threshold = 2;
  LocalityMonitor pmu(config);
  (void)pmu.decide(100);                              // Allocate.
  (void)pmu.decide(100);                              // Ignored.
  EXPECT_EQ(pmu.decide(100), PeiPlacement::kMemory);  // hits=1 < 2.
  EXPECT_EQ(pmu.decide(100), PeiPlacement::kHost);    // hits=2.
  EXPECT_GT(pmu.stats().host_decisions, 0u);
}

TEST(LocalityMonitor, AttackPatternStaysMemorySide) {
  // The §4.1 bypass: touch every block at most twice.
  LocalityMonitor pmu;
  for (std::uint64_t block = 0; block < 256; ++block) {
    EXPECT_EQ(pmu.decide(block), PeiPlacement::kMemory);
    EXPECT_EQ(pmu.decide(block), PeiPlacement::kMemory);
  }
  EXPECT_EQ(pmu.stats().host_decisions, 0u);
}

TEST(LocalityMonitor, LruEvictionRecyclesEntries) {
  LocalityMonitorConfig config;
  config.entries = 4;
  config.ways = 4;  // One set.
  LocalityMonitor pmu(config);
  for (std::uint64_t b = 0; b < 5; ++b) (void)pmu.decide(b);
  // Block 0 was evicted; re-deciding allocates fresh (memory-side).
  EXPECT_EQ(pmu.decide(0), PeiPlacement::kMemory);
  EXPECT_EQ(pmu.stats().allocations, 6u);
}

class PeiTest : public ::testing::Test {
 protected:
  PeiTest() : system_(sys::SystemConfig{}), pei_(PeiConfig{}, system_, 1) {
    span_ = system_.vmem().map_row(1, 4, 30);
    system_.warm_span(1, span_);
  }

  sys::MemorySystem system_;
  PeiDispatcher pei_;
  sys::VSpan span_;
};

TEST_F(PeiTest, MemorySidePeiActivatesRow) {
  util::Cycle clock = 0;
  const auto r = pei_.execute(span_.vaddr, clock);
  EXPECT_EQ(r.placement, PeiPlacement::kMemory);
  EXPECT_EQ(r.bank, 4u);
  EXPECT_EQ(system_.controller().open_row(4, clock), 30u);
  EXPECT_EQ(clock, r.latency);
}

TEST_F(PeiTest, HitVsConflictVisibleThroughPei) {
  util::Cycle clock = 0;
  const auto other = system_.vmem().map_row(1, 4, 31);
  system_.warm_span(1, other);
  auto col = [&] { return pei_.next_bypass_column(8192, 64); };
  (void)pei_.execute(span_.vaddr + col(), clock);
  const auto hit = pei_.execute(span_.vaddr + col(), clock);
  EXPECT_EQ(hit.outcome, dram::RowBufferOutcome::kHit);
  (void)pei_.execute(other.vaddr + col(), clock);
  const auto conflict = pei_.execute(span_.vaddr + col(), clock);
  EXPECT_EQ(conflict.outcome, dram::RowBufferOutcome::kConflict);
  EXPECT_GT(conflict.latency, hit.latency);
}

TEST_F(PeiTest, RepeatedBlockEventuallyHostPlaced) {
  util::Cycle clock = 0;
  PeiResult r;
  for (int i = 0; i < 5; ++i) r = pei_.execute(span_.vaddr, clock);
  EXPECT_EQ(r.placement, PeiPlacement::kHost);
}

TEST_F(PeiTest, BypassColumnsRotateThroughRow) {
  std::set<std::uint32_t> cols;
  for (int i = 0; i < 128; ++i) cols.insert(pei_.next_bypass_column(8192, 64));
  EXPECT_EQ(cols.size(), 128u);  // 8192/64 distinct blocks.
  // Wraps around afterwards.
  EXPECT_EQ(pei_.next_bypass_column(8192, 64), *cols.begin());
}

/// One run of a mixed PEI stream through a fresh system: either the
/// scalar loop (`clock += pre; execute; clock += post` per PEI) or one
/// execute_batch call over the same vaddrs.
struct PeiRun {
  std::vector<PeiResult> results;
  util::Cycle clock = 0;
  obs::Snapshot snapshot;
  std::size_t hierarchy_builds = 0;
};

/// `eager_hierarchy` requests the actor's hierarchy before the dispatcher
/// exists; otherwise the first host-side PEI builds it.
PeiRun run_pei_stream(bool batched, util::Cycle pre_cost,
                      util::Cycle post_cost, bool eager_hierarchy = false) {
  obs::Scope scope;
  sys::MemorySystem system{sys::SystemConfig{}};
  if (eager_hierarchy) (void)system.hierarchy(1);
  const sys::VSpan row_a = system.vmem().map_row(1, 4, 30);
  const sys::VSpan row_b = system.vmem().map_row(1, 4, 31);
  system.warm_span(1, row_a);
  system.warm_span(1, row_b);
  PeiDispatcher pei(PeiConfig{}, system, 1);

  std::vector<sys::VAddr> stream;
  // Fresh blocks of one open row: row hits after the first activation.
  for (std::uint32_t k = 0; k < 8; ++k) stream.push_back(row_a.vaddr + 64 * k);
  // Alternating rows of the same bank: row conflicts.
  for (std::uint32_t k = 8; k < 16; ++k) {
    stream.push_back((k % 2 == 0 ? row_a : row_b).vaddr + 64 * k);
  }
  // One block over and over: the PMU moves it host-side.
  for (int k = 0; k < 6; ++k) stream.push_back(row_b.vaddr + 64 * 40);
  // And back to memory-side traffic on the other row.
  for (std::uint32_t k = 16; k < 20; ++k) {
    stream.push_back(row_a.vaddr + 64 * k);
  }

  PeiRun out;
  out.results.resize(stream.size());
  if (batched) {
    pei.execute_batch(stream.data(), stream.size(), out.clock, pre_cost,
                      post_cost, out.results.data());
  } else {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      out.clock += pre_cost;
      out.results[i] = pei.execute(stream[i], out.clock);
      out.clock += post_cost;
    }
  }
  out.snapshot = scope.snapshot();
  out.hierarchy_builds = system.hierarchy_builds();
  return out;
}

TEST_F(PeiTest, ExecuteBatchMatchesScalarLoop) {
  // The batched path behind ImpactPnm::send_run/probe_run must reproduce
  // the scalar loop cycle for cycle, counters included.
  constexpr util::Cycle kPre = 7;
  constexpr util::Cycle kPost = 11;
  const PeiRun scalar = run_pei_stream(false, kPre, kPost);
  const PeiRun batch = run_pei_stream(true, kPre, kPost);

  // The stream must exercise what it claims to.
  std::size_t hits = 0;
  std::size_t conflicts = 0;
  std::size_t host = 0;
  for (const PeiResult& r : scalar.results) {
    if (r.placement == PeiPlacement::kHost) {
      ++host;
    } else if (r.outcome == dram::RowBufferOutcome::kHit) {
      ++hits;
    } else if (r.outcome == dram::RowBufferOutcome::kConflict) {
      ++conflicts;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(host, 0u);

  ASSERT_EQ(batch.results.size(), scalar.results.size());
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].latency, scalar.results[i].latency) << i;
    EXPECT_EQ(batch.results[i].placement, scalar.results[i].placement) << i;
    EXPECT_EQ(batch.results[i].outcome, scalar.results[i].outcome) << i;
    EXPECT_EQ(batch.results[i].bank, scalar.results[i].bank) << i;
  }
  EXPECT_EQ(batch.clock, scalar.clock);
  for (const char* name :
       {"pim.pei.ops", "pim.pei.memory_side", "pim.pei.host_side"}) {
    EXPECT_EQ(batch.snapshot.counter(name), scalar.snapshot.counter(name))
        << name;
  }
  EXPECT_EQ(scalar.snapshot.counter("pim.pei.ops"), scalar.results.size());
  EXPECT_EQ(scalar.snapshot.counter("pim.pei.host_side"), host);
}

TEST(PeiLazyHierarchy, FirstHostSidePeiBuildsItOnce) {
  {
    // Memory-side PEIs never build one.
    sys::MemorySystem system{sys::SystemConfig{}};
    const sys::VSpan row = system.vmem().map_row(1, 4, 30);
    system.warm_span(1, row);
    PeiDispatcher pei(PeiConfig{}, system, 1);
    util::Cycle clock = 0;
    for (std::uint32_t k = 0; k < 16; ++k) {
      ASSERT_EQ(pei.execute(row.vaddr + 64 * k, clock).placement,
                PeiPlacement::kMemory);
    }
    EXPECT_EQ(system.hierarchy_builds(), 0u);
  }
  // The stream forces host-side PEIs; its results do not depend on when
  // the hierarchy was built.
  const PeiRun lazy = run_pei_stream(false, 7, 11);
  const PeiRun eager = run_pei_stream(false, 7, 11, /*eager_hierarchy=*/true);
  EXPECT_EQ(lazy.hierarchy_builds, 1u);
  EXPECT_EQ(eager.hierarchy_builds, 1u);
  ASSERT_EQ(lazy.results.size(), eager.results.size());
  std::size_t host = 0;
  for (std::size_t i = 0; i < lazy.results.size(); ++i) {
    host += lazy.results[i].placement == PeiPlacement::kHost ? 1 : 0;
    EXPECT_EQ(lazy.results[i].latency, eager.results[i].latency) << i;
    EXPECT_EQ(lazy.results[i].placement, eager.results[i].placement) << i;
    EXPECT_EQ(lazy.results[i].outcome, eager.results[i].outcome) << i;
    EXPECT_EQ(lazy.results[i].bank, eager.results[i].bank) << i;
  }
  EXPECT_GT(host, 1u);
  EXPECT_EQ(lazy.clock, eager.clock);
  EXPECT_EQ(lazy.snapshot.counters, eager.snapshot.counters);
  EXPECT_GT(lazy.snapshot.counter("cache.l1.hits"), 0u);
}

class RowCloneUnitTest : public ::testing::Test {
 protected:
  RowCloneUnitTest()
      : system_(sys::SystemConfig{}),
        unit_(RowCloneConfig{}, system_, 1) {
    src_ = system_.vmem().map_row_span(1, 8);
    dst_ = system_.vmem().map_row_span(1, 9);
    system_.warm_span(1, src_);
    system_.warm_span(1, dst_);
  }

  sys::MemorySystem system_;
  RowCloneUnit unit_;
  sys::VSpan src_;
  sys::VSpan dst_;
};

TEST_F(RowCloneUnitTest, MaskSelectsBanks) {
  util::Cycle clock = 0;
  const auto r = unit_.execute(
      RowCloneRequest{src_.vaddr, dst_.vaddr, 0b1010}, clock);
  ASSERT_EQ(r.legs.size(), 2u);
  EXPECT_EQ(r.legs[0].bank, 1u);
  EXPECT_EQ(r.legs[1].bank, 3u);
  EXPECT_EQ(system_.controller().open_row(1, clock), 9u);
  EXPECT_FALSE(system_.controller().open_row(0, clock).has_value());
}

TEST_F(RowCloneUnitTest, CopiesData) {
  auto* data = system_.controller().data();
  ASSERT_NE(data, nullptr);
  const std::array<std::uint8_t, 4> payload{1, 2, 3, 4};
  data->write(dram::DramAddress{2, 8, 0}, payload);
  util::Cycle clock = 0;
  (void)unit_.execute(RowCloneRequest{src_.vaddr, dst_.vaddr, 0b100}, clock);
  std::array<std::uint8_t, 4> out{};
  data->read(dram::DramAddress{2, 9, 0}, out);
  EXPECT_EQ(out, payload);
}

TEST_F(RowCloneUnitTest, EmptyMaskRejected) {
  util::Cycle clock = 0;
  EXPECT_THROW(
      (void)unit_.execute(RowCloneRequest{src_.vaddr, dst_.vaddr, 0}, clock),
      std::invalid_argument);
}

TEST_F(RowCloneUnitTest, NonBlockingRetiresAtAck) {
  RowCloneConfig blocking_cfg;
  blocking_cfg.blocking = true;
  RowCloneUnit blocking_unit(blocking_cfg, system_, 1);
  util::Cycle nb_clock = 0;
  util::Cycle b_clock = 0;
  (void)unit_.execute(RowCloneRequest{src_.vaddr, dst_.vaddr, 1}, nb_clock);
  (void)blocking_unit.execute(RowCloneRequest{src_.vaddr, dst_.vaddr, 2},
                              b_clock);
  EXPECT_LT(nb_clock, b_clock);
}

// Records every RowClone leg the banks execute as (bank, src row, dst row).
struct RowCloneLegRecorder final : dram::CommandObserver {
  std::vector<dram::RowCloneLeg> legs;
  void on_command(const dram::CommandRecord& r) override {
    if (r.kind == dram::CommandKind::kRowClone) {
      legs.push_back(dram::RowCloneLeg{r.bank, r.src_row, r.row});
    }
  }
};

TEST(RowCloneUnitView, LegsMatchVirtualMemoryTranslate) {
  // The unit resolves its translation view before any span is mapped, as
  // attacks::ImpactPum does; the view must see the later mappings, huge
  // pages included, and yield the legs translate + decode give.
  sys::MemorySystem system(sys::SystemConfig{});
  RowCloneUnit unit(RowCloneConfig{}, system, 1);
  auto& vmem = system.vmem();
  const std::pair<sys::VSpan, sys::VSpan> pairs[] = {
      {vmem.map_row_span(1, 8), vmem.map_row_span(1, 9)},
      {vmem.map_row_span(1, 10, /*huge=*/true),
       vmem.map_row_span(1, 11, /*huge=*/true)},
  };
  ASSERT_TRUE(vmem.is_huge(1, pairs[1].first.vaddr));
  RowCloneLegRecorder recorder;
  system.controller().add_observer(&recorder);
  const auto& mapping = system.controller().mapping();
  const std::uint64_t row_bytes = mapping.row_bytes();
  util::Cycle clock = 0;
  for (const auto& [src, dst] : pairs) {
    for (const std::uint64_t mask :
         {std::uint64_t{0b1011}, ~std::uint64_t{0}, std::uint64_t{1} << 63,
          std::uint64_t{0x00F0'0000'0F00'F00F}}) {
      std::vector<dram::RowCloneLeg> expect;
      for (std::uint32_t k = 0; k < 64; ++k) {
        if (((mask >> k) & 1) == 0) continue;
        const std::uint64_t off = k * row_bytes;
        const auto s = mapping.decode(vmem.translate(1, src.vaddr + off));
        const auto d = mapping.decode(vmem.translate(1, dst.vaddr + off));
        expect.push_back(dram::RowCloneLeg{s.bank, s.row, d.row});
      }
      recorder.legs.clear();
      (void)unit.execute(RowCloneRequest{src.vaddr, dst.vaddr, mask}, clock);
      ASSERT_EQ(recorder.legs.size(), expect.size()) << std::hex << mask;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(recorder.legs[i].bank, expect[i].bank);
        EXPECT_EQ(recorder.legs[i].src, expect[i].src);
        EXPECT_EQ(recorder.legs[i].dst, expect[i].dst);
      }
    }
  }
  system.controller().remove_observer(&recorder);
}

TEST(OffChipPredictorTest, InitialBiasIsOffChip) {
  OffChipPredictor predictor;
  EXPECT_TRUE(predictor.predict_offchip(1234));
}

TEST(OffChipPredictorTest, LearnsOnChipBlocks) {
  OffChipPredictor predictor;
  for (int i = 0; i < 16; ++i) predictor.train(42, /*was_offchip=*/false);
  EXPECT_FALSE(predictor.predict_offchip(42));
  // An unrelated block keeps the off-chip default.
  EXPECT_TRUE(predictor.predict_offchip(0xABCDEF));
}

TEST(OffChipPredictorTest, PimAttackPatternStaysOffChipStable) {
  // PiM operations never fill the cache, so the truth is always
  // "off-chip" and the predictor reinforces memory-side execution: the
  // positive feedback loop PnM-OffChip's attacker relies on.
  OffChipPredictor predictor;
  for (std::uint64_t block = 0; block < 512; ++block) {
    EXPECT_TRUE(predictor.predict_and_train(block % 64, true));
  }
  EXPECT_GT(predictor.stats().accuracy(), 0.95);
}

TEST(OffChipPredictorTest, WeightsSaturate) {
  OffChipPredictor predictor;
  for (int i = 0; i < 1000; ++i) predictor.train(7, false);
  for (int i = 0; i < 8; ++i) predictor.train(7, true);
  // A long history cannot lock the prediction forever (clamped weights).
  for (int i = 0; i < 40; ++i) predictor.train(7, true);
  EXPECT_TRUE(predictor.predict_offchip(7));
}

}  // namespace
}  // namespace impact::pim
