// Scalar-vs-batch bit-identity pins for the SoA access-stream kernel
// (docs/performance.md, "Batched access streams").
//
// MemoryController::access_batch() promises that every request resolves
// bit-identically to the scalar access() issued in index order — across
// mapping schemes, refresh-window crossings, partitioned mode, attached
// fault injectors (whose per-kind RNG streams must draw in the scalar
// sequence), protocol checking, and the obs:: counter totals. These tests
// drive both paths over identical random streams and compare everything.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/protocol_checker.hpp"
#include "dram/access_batch.hpp"
#include "dram/controller.hpp"
#include "fault/injector.hpp"
#include "obs/scope.hpp"
#include "util/rng.hpp"

namespace impact::dram {
namespace {

constexpr std::uint64_t kSeed = 0xba7c4;

/// One random request stream: addresses uniform over the module, issue
/// cycles strictly increasing with gaps up to `max_gap` so long streams
/// cross many refresh windows (tREFI is ~10k cycles at default timing).
struct Stream {
  std::vector<PhysAddr> addr;
  std::vector<util::Cycle> issue;
};

Stream random_stream(const DramConfig& config, std::size_t n,
                     std::uint64_t seed, util::Cycle max_gap = 10000) {
  util::Xoshiro256 rng(seed);
  Stream s;
  s.addr.reserve(n);
  s.issue.reserve(n);
  util::Cycle clock = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    s.addr.push_back(rng.below(config.capacity_bytes()));
    s.issue.push_back(clock);
    clock += 1 + rng.below(max_gap);
  }
  return s;
}

/// Replays `s` through mc.access() in index order.
std::vector<AccessResult> run_scalar(MemoryController& mc, const Stream& s,
                                     ActorId actor = kAnyActor) {
  std::vector<AccessResult> out;
  out.reserve(s.addr.size());
  for (std::size_t i = 0; i < s.addr.size(); ++i) {
    out.push_back(mc.access(s.addr[i], s.issue[i], actor));
  }
  return out;
}

/// Replays `s` through mc.access_batch() and expects per-index equality
/// with `scalar` on every result field (and the decoded bank).
void expect_batch_matches(MemoryController& mc, const Stream& s,
                          const std::vector<AccessResult>& scalar,
                          ActorId actor = kAnyActor) {
  AccessBatch batch;
  for (std::size_t i = 0; i < s.addr.size(); ++i) {
    batch.push(s.addr[i], s.issue[i]);
  }
  mc.access_batch(batch, actor);
  ASSERT_EQ(batch.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(batch.latency[i], scalar[i].latency) << "request " << i;
    ASSERT_EQ(batch.completion[i], scalar[i].completion) << "request " << i;
    ASSERT_EQ(batch.ack[i], scalar[i].ack) << "request " << i;
    ASSERT_EQ(batch.outcome[i], scalar[i].outcome) << "request " << i;
    ASSERT_EQ(batch.bank[i], scalar[i].bank) << "request " << i;
  }
}

void expect_stats_equal(const MemoryController& a,
                        const MemoryController& b) {
  const BankStats sa = a.total_stats();
  const BankStats sb = b.total_stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.empties, sb.empties);
  EXPECT_EQ(sa.conflicts, sb.conflicts);
  EXPECT_EQ(sa.activations, sb.activations);
}

class MappingSchemes : public ::testing::TestWithParam<MappingScheme> {};

TEST_P(MappingSchemes, BatchMatchesScalarOverRandomStreams) {
  const DramConfig config;
  MemoryController scalar_mc(config, GetParam());
  MemoryController batch_mc(config, GetParam());
  const Stream s = random_stream(config, 4096, kSeed);
  const auto scalar = run_scalar(scalar_mc, s);
  expect_batch_matches(batch_mc, s, scalar);
  expect_stats_equal(scalar_mc, batch_mc);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MappingSchemes,
                         ::testing::Values(MappingScheme::kBankInterleaved,
                                           MappingScheme::kRowBankCol,
                                           MappingScheme::kXorBankHash));

TEST(AccessBatch, CrossesRefreshWindows) {
  // Long gaps force many refresh-boundary crossings inside one batch: the
  // cached next-refresh boundary in Bank must re-derive identically on
  // both paths.
  const DramConfig config;
  MemoryController scalar_mc(config);
  MemoryController batch_mc(config);
  const Stream s = random_stream(config, 2048, kSeed + 1,
                                 /*max_gap=*/200000);
  const auto scalar = run_scalar(scalar_mc, s);
  expect_batch_matches(batch_mc, s, scalar);
}

TEST(AccessBatch, RowPoliciesMatchScalar) {
  for (const RowPolicy policy :
       {RowPolicy::kOpenRow, RowPolicy::kClosedRow,
        RowPolicy::kConstantTime}) {
    DramConfig config;
    config.policy = policy;
    MemoryController scalar_mc(config);
    MemoryController batch_mc(config);
    const Stream s = random_stream(config, 1024, kSeed + 2);
    const auto scalar = run_scalar(scalar_mc, s);
    expect_batch_matches(batch_mc, s, scalar);
  }
}

TEST(AccessBatch, PartitionedModeMatchesScalar) {
  // Claim every bank for actor 1, address only owned banks: the batch's
  // hoisted partition guard must admit exactly what scalar admits.
  const DramConfig config;
  MemoryController scalar_mc(config);
  MemoryController batch_mc(config);
  for (BankId b = 0; b < scalar_mc.banks(); ++b) {
    scalar_mc.set_partition_owner(b, 1);
    batch_mc.set_partition_owner(b, 1);
  }
  const Stream s = random_stream(config, 2048, kSeed + 3);
  const auto scalar = run_scalar(scalar_mc, s, /*actor=*/1);
  expect_batch_matches(batch_mc, s, scalar, /*actor=*/1);
  EXPECT_EQ(scalar_mc.partition_faults(), 0u);
  EXPECT_EQ(batch_mc.partition_faults(), 0u);
}

TEST(AccessBatch, PartitionViolationThrows) {
  // Documented divergence: the batch validates the whole stream up front
  // and throws before processing any request, where scalar would process
  // the prefix first. Both reject the foreign access itself.
  const DramConfig config;
  MemoryController mc(config);
  mc.set_partition_owner(0, /*owner=*/1);
  AccessBatch batch;
  batch.push(mc.mapping().row_base(0, 5), 1000);
  EXPECT_THROW(mc.access_batch(batch, /*actor=*/2), std::invalid_argument);
}

TEST(AccessBatch, ProtocolCheckerCleanOnBatchedStream) {
  // IMPACT_CHECK=1 (set by CTest) auto-attaches an aborting checker, so
  // merely reaching the end already proves legality; the external collect
  // checker additionally pins that every command was delivered and none
  // violated.
  const DramConfig config;
  MemoryController mc(config);
  check::ProtocolChecker collector(config.derived_timing(),
                                   check::FailMode::kCollect);
  mc.add_observer(&collector);
  const Stream s = random_stream(config, 4096, kSeed + 4);
  AccessBatch batch;
  for (std::size_t i = 0; i < s.addr.size(); ++i) {
    batch.push(s.addr[i], s.issue[i]);
  }
  mc.access_batch(batch);
  EXPECT_TRUE(collector.violations().empty());
  EXPECT_GT(collector.commands_checked(), 0u);
  mc.remove_observer(&collector);
}

TEST(AccessBatch, FaultInjectorFiresIdentically) {
  // With an injector attached the kernel falls back to index order so the
  // per-kind RNG streams draw in the scalar sequence: same (seed, kind)
  // configuration on both paths must fire the same faults at the same
  // requests and leave identical counters.
  const DramConfig config;
  const std::vector<fault::FaultConfig> faults = {
      {fault::FaultKind::kDramJitter, 0.05, 40, 0, ~0ull},
      {fault::FaultKind::kRefreshStorm, 0.02, 0, 0, ~0ull},
  };
  MemoryController scalar_mc(config);
  MemoryController batch_mc(config);
  fault::Injector scalar_inj(kSeed + 5, faults);
  fault::Injector batch_inj(kSeed + 5, faults);
  scalar_mc.set_fault_injector(&scalar_inj);
  batch_mc.set_fault_injector(&batch_inj);

  const Stream s = random_stream(config, 4096, kSeed + 6);
  const auto scalar = run_scalar(scalar_mc, s);
  expect_batch_matches(batch_mc, s, scalar);

  EXPECT_GT(scalar_inj.counters().total_fired(), 0u);  // Faults did fire.
  EXPECT_EQ(scalar_inj.counters().fired, batch_inj.counters().fired);
  EXPECT_EQ(scalar_inj.counters().opportunities,
            batch_inj.counters().opportunities);
}

TEST(AccessBatch, ObsCounterTotalsEqualBetweenPaths) {
  if (!obs::kCompiled) GTEST_SKIP() << "obs compiled out";
  const DramConfig config;
  const Stream s = random_stream(config, 2048, kSeed + 7);
  obs::Snapshot scalar_snap;
  {
    obs::Scope scope;
    MemoryController mc(config);
    (void)run_scalar(mc, s);
    scalar_snap = scope.snapshot();
  }
  obs::Snapshot batch_snap;
  {
    obs::Scope scope;
    MemoryController mc(config);
    AccessBatch batch;
    for (std::size_t i = 0; i < s.addr.size(); ++i) {
      batch.push(s.addr[i], s.issue[i]);
    }
    mc.access_batch(batch);
    batch_snap = scope.snapshot();
  }
  EXPECT_FALSE(scalar_snap.counters.empty());
  EXPECT_EQ(scalar_snap.counters, batch_snap.counters);
}

TEST(AccessBatch, ReuseAfterClearIsDeterministic) {
  // clear() keeps capacity; a reused batch must produce the same answers
  // as a fresh one fed the same stream into the same controller state.
  const DramConfig config;
  MemoryController mc_a(config);
  MemoryController mc_b(config);
  const Stream warm = random_stream(config, 512, kSeed + 8);
  const Stream s = random_stream(config, 512, kSeed + 9);

  AccessBatch reused;
  for (std::size_t i = 0; i < warm.addr.size(); ++i) {
    reused.push(warm.addr[i], warm.issue[i]);
  }
  mc_a.access_batch(reused);
  reused.clear();
  for (std::size_t i = 0; i < s.addr.size(); ++i) {
    reused.push(s.addr[i], s.issue[i]);
  }
  mc_a.access_batch(reused);

  (void)run_scalar(mc_b, warm);
  const auto scalar = run_scalar(mc_b, s);
  ASSERT_EQ(reused.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(reused.latency[i], scalar[i].latency) << "request " << i;
    ASSERT_EQ(reused.outcome[i], scalar[i].outcome) << "request " << i;
  }
}

}  // namespace
}  // namespace impact::dram
