// Unit tests: memory controller — decoding, partitioning, policies,
// masked RowClone with atomicity, and the functional data array.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dram/controller.hpp"

namespace impact::dram {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : mc_(DramConfig{}),
        timing_(DramConfig{}.derived_timing()) {}

  MemoryController mc_;
  Timing timing_;
};

TEST_F(ControllerTest, AccessRoutesToDecodedBank) {
  const PhysAddr addr = mc_.mapping().row_base(5, 7) + 128;
  const auto r = mc_.access(addr, 1000);
  EXPECT_EQ(r.bank, 5u);
  EXPECT_EQ(mc_.open_row(5, r.completion), 7u);
}

TEST_F(ControllerTest, IssueOverheadAddsToLatency) {
  const auto r = mc_.access_row(0, 1, 1000);
  EXPECT_EQ(r.latency, timing_.empty_latency() + mc_.issue_overhead());
}

TEST_F(ControllerTest, HitAndConflictThroughController) {
  auto r = mc_.access_row(3, 10, 1000);
  r = mc_.access_row(3, 10, r.completion + 10);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kHit);
  r = mc_.access_row(3, 11, r.completion + 200);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kConflict);
}

TEST_F(ControllerTest, PolicySwitchAppliesToAllBanks) {
  mc_.set_policy(RowPolicy::kClosedRow);
  auto r = mc_.access_row(2, 10, 1000);
  r = mc_.access_row(2, 10, r.completion + 300);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kEmpty);
  mc_.set_policy(RowPolicy::kOpenRow);
  r = mc_.access_row(2, 10, r.completion + 300);
  r = mc_.access_row(2, 10, r.completion + 10);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kHit);
}

TEST_F(ControllerTest, PartitioningBlocksForeignActors) {
  mc_.set_partition_owner(4, /*owner=*/7);
  EXPECT_TRUE(mc_.can_access(4, 7));
  EXPECT_FALSE(mc_.can_access(4, 8));
  EXPECT_TRUE(mc_.can_access(5, 8));  // Unowned banks stay open.
  EXPECT_NO_THROW(mc_.access_row(4, 1, 1000, 7));
  EXPECT_THROW(mc_.access_row(4, 1, 2000, 8), std::invalid_argument);
  EXPECT_EQ(mc_.partition_faults(), 1u);
  // Releasing the claim re-opens the bank.
  mc_.set_partition_owner(4, kAnyActor);
  EXPECT_NO_THROW(mc_.access_row(4, 1, 3000, 8));
}

TEST_F(ControllerTest, RowCloneSingleLeg) {
  const auto r = mc_.rowclone(
      std::array{RowCloneLeg{2, 4, 5}}, 1000, /*atomic=*/false);
  ASSERT_EQ(r.legs.size(), 1u);
  EXPECT_EQ(r.legs[0].bank, 2u);
  EXPECT_EQ(mc_.open_row(2, r.completion), 5u);
  EXPECT_LE(r.ack_latency, r.latency);
}

TEST_F(ControllerTest, RowCloneLegsRunInParallel) {
  std::vector<RowCloneLeg> legs;
  for (BankId b = 0; b < 16; ++b) legs.push_back(RowCloneLeg{b, 4, 5});
  const auto multi = mc_.rowclone(legs, 1000, /*atomic=*/false);
  const auto single = mc_.rowclone(
      std::array{RowCloneLeg{20, 4, 5}}, multi.completion + 100,
      /*atomic=*/false);
  // 16 parallel legs take (about) as long as one: that is the PuM
  // sender's advantage.
  EXPECT_EQ(multi.latency, single.latency);
}

TEST_F(ControllerTest, AtomicRowCloneGatesAllBanks) {
  const auto r = mc_.rowclone(std::array{RowCloneLeg{0, 4, 5}}, 1000,
                              /*atomic=*/true);
  // A bank not involved in the clone still cannot start earlier.
  const auto other = mc_.access_row(9, 1, 1001);
  EXPECT_GE(other.completion, r.completion);
}

TEST_F(ControllerTest, NonAtomicRowCloneLeavesOtherBanksFree) {
  const auto r = mc_.rowclone(std::array{RowCloneLeg{0, 4, 5}}, 1000,
                              /*atomic=*/false);
  const auto other = mc_.access_row(9, 1, 1001);
  EXPECT_LT(other.completion, r.completion);
}

TEST_F(ControllerTest, RowCloneRejectsCrossSubarray) {
  const auto rows = DramConfig{}.subarray_rows;
  EXPECT_THROW(mc_.rowclone(std::array{RowCloneLeg{0, 4, rows + 4}}, 1000),
               std::invalid_argument);
}

TEST_F(ControllerTest, RowCloneRespectsPartitioning) {
  mc_.set_partition_owner(0, 7);
  EXPECT_THROW(
      mc_.rowclone(std::array{RowCloneLeg{0, 4, 5}}, 1000, true, 8),
      std::invalid_argument);
}

TEST_F(ControllerTest, StatsAggregateOverBanks) {
  mc_.reset_stats();
  (void)mc_.access_row(0, 1, 1000);
  (void)mc_.access_row(1, 1, 1000);
  const auto total = mc_.total_stats();
  EXPECT_EQ(total.accesses(), 2u);
  EXPECT_EQ(mc_.bank_stats(0).accesses(), 1u);
}

// --- Functional data array ------------------------------------------

TEST(DataArray, UnwrittenReadsZero) {
  DataArray data((DramConfig()));
  std::array<std::uint8_t, 8> buf{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF};
  data.read(DramAddress{0, 0, 0}, buf);
  for (auto b : buf) EXPECT_EQ(b, 0u);
  EXPECT_EQ(data.materialized_rows(), 0u);
}

TEST(DataArray, WriteReadRoundTrip) {
  DataArray data((DramConfig()));
  const std::array<std::uint8_t, 4> in{1, 2, 3, 4};
  data.write(DramAddress{3, 17, 100}, in);
  std::array<std::uint8_t, 4> out{};
  data.read(DramAddress{3, 17, 100}, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(data.materialized_rows(), 1u);
}

TEST(DataArray, RejectsRowCrossing) {
  DataArray data((DramConfig()));
  std::array<std::uint8_t, 8> buf{};
  EXPECT_THROW(data.read(DramAddress{0, 0, 8190}, buf),
               std::invalid_argument);
  EXPECT_THROW(data.write(DramAddress{0, 0, 8190}, buf),
               std::invalid_argument);
}

TEST(DataArray, CloneRowCopiesWholeRow) {
  DataArray data((DramConfig()));
  const std::array<std::uint8_t, 3> in{9, 8, 7};
  data.write(DramAddress{1, 4, 0}, in);
  data.clone_row(1, 4, 5);
  std::array<std::uint8_t, 3> out{};
  data.read(DramAddress{1, 5, 0}, out);
  EXPECT_EQ(in, out);
  // Cloning a zero row zero-fills the destination.
  data.clone_row(1, 100, 5);
  data.read(DramAddress{1, 5, 0}, out);
  for (auto b : out) EXPECT_EQ(b, 0u);
}

TEST(DataArray, ZeroCloneOverWrittenRowLeavesItAbsent) {
  DataArray data((DramConfig()));
  const std::array<std::uint8_t, 4> in{1, 2, 3, 4};
  data.write(DramAddress{3, 7, 4000}, in);
  ASSERT_EQ(data.materialized_rows(), 1u);
  data.clone_row(3, 8, 7);  // Row 8 was never written.
  std::array<std::uint8_t, 4> out{0xFF, 0xFF, 0xFF, 0xFF};
  data.read(DramAddress{3, 7, 4000}, out);
  for (auto b : out) EXPECT_EQ(b, 0u);
  EXPECT_EQ(data.materialized_rows(), 0u);
  // A zero clone onto an absent row materializes nothing either.
  data.clone_row(3, 8, 9);
  EXPECT_EQ(data.materialized_rows(), 0u);
}

TEST(DataArray, NonZeroCloneCopiesWholeRow) {
  DataArray data((DramConfig()));
  const std::uint32_t n = data.row_bytes();
  std::vector<std::uint8_t> src(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  data.write(DramAddress{4, 2, 0}, src);
  // Into a fresh destination.
  data.clone_row(4, 2, 3);
  std::vector<std::uint8_t> out(n);
  data.read(DramAddress{4, 3, 0}, out);
  EXPECT_EQ(out, src);
  // Over an existing destination holding other bytes.
  const std::vector<std::uint8_t> other(n, 0x5A);
  data.write(DramAddress{4, 6, 0}, other);
  data.clone_row(4, 2, 6);
  data.read(DramAddress{4, 6, 0}, out);
  EXPECT_EQ(out, src);
  // The source is untouched.
  data.read(DramAddress{4, 2, 0}, out);
  EXPECT_EQ(out, src);
  EXPECT_EQ(data.materialized_rows(), 3u);
}

TEST(DataArray, SelfCloneIsHarmless) {
  DataArray data((DramConfig()));
  const std::array<std::uint8_t, 2> in{5, 6};
  data.write(DramAddress{0, 9, 0}, in);
  data.clone_row(0, 9, 9);
  std::array<std::uint8_t, 2> out{};
  data.read(DramAddress{0, 9, 0}, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(data.materialized_rows(), 1u);
}

TEST(DataArray, FillRow) {
  DataArray data((DramConfig()));
  data.fill_row(2, 3, 0xAB);
  std::array<std::uint8_t, 2> out{};
  data.read(DramAddress{2, 3, 8190}, out);
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_EQ(out[1], 0xAB);
}

TEST(DataArray, ControllerRowCloneMovesData) {
  MemoryController mc((DramConfig()));
  const std::array<std::uint8_t, 4> in{0xDE, 0xAD, 0xBE, 0xEF};
  mc.data()->write(DramAddress{6, 8, 64}, in);
  (void)mc.rowclone(std::array{RowCloneLeg{6, 8, 9}}, 1000);
  std::array<std::uint8_t, 4> out{};
  mc.data()->read(DramAddress{6, 9, 64}, out);
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace impact::dram
