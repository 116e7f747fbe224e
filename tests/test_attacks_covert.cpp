// Integration tests: all covert-channel attacks end to end.
#include <gtest/gtest.h>

#include "attacks/impact_pnm.hpp"
#include "attacks/impact_pum.hpp"
#include "attacks/pnm_offchip.hpp"
#include "attacks/registry.hpp"
#include "util/rng.hpp"

namespace impact::attacks {
namespace {

sys::MemorySystem make_system(AttackKind kind,
                              std::uint64_t llc_mb = 8) {
  sys::SystemConfig config;
  config.llc_bytes = llc_mb << 20;
  config.mapping = recommended_mapping(kind);
  return sys::MemorySystem(config);
}

class AttackRoundTrip : public ::testing::TestWithParam<AttackKind> {};

TEST_P(AttackRoundTrip, RandomMessagesDecodeReliably) {
  auto system = make_system(GetParam());
  auto attack = make_attack(GetParam(), system);
  util::Xoshiro256 rng(77);
  std::size_t errors = 0;
  std::size_t bits = 0;
  for (int m = 0; m < 6; ++m) {
    const auto msg = util::BitVec::random(48, rng);
    const auto result = attack->transmit(msg);
    errors += result.report.bit_errors();
    bits += result.report.bits_total;
    EXPECT_EQ(result.sent, msg);
    EXPECT_EQ(result.decoded.size(), msg.size());
  }
  // Even the noisiest primitive stays under a few percent in the quiet
  // simulated system; IMPACT variants are error-free.
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(bits), 0.06);
}

TEST_P(AttackRoundTrip, ThroughputIsPositiveAndBounded) {
  auto system = make_system(GetParam());
  auto attack = make_attack(GetParam(), system);
  const auto report = attack->measure(64, 4, 5);
  const double mbps =
      report.throughput_mbps(util::kDefaultFrequency);
  EXPECT_GT(mbps, 0.05);
  EXPECT_LT(mbps, 40.0);  // Physically bounded by the probe cost.
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AttackRoundTrip,
    ::testing::Values(AttackKind::kDramaClflush, AttackKind::kDramaEviction,
                      AttackKind::kDmaEngine, AttackKind::kPnmOffChip,
                      AttackKind::kImpactPnm, AttackKind::kImpactPum,
                      AttackKind::kDirectAccess),
    [](const auto& info) {
      std::string name = to_string(info.param);
      std::string out;
      for (char c : name) {
        if (c != '-') out.push_back(c);
      }
      return out;
    });

TEST(AttackOrdering, ImpactBeatsProcessorCentricAttacks) {
  // The paper's headline: both IMPACT variants out-run every
  // processor-centric channel, and PuM edges out PnM.
  auto mbps = [&](AttackKind kind) {
    auto system = make_system(kind);
    auto attack = make_attack(kind, system);
    return attack->measure(64, 8, 9).throughput_mbps(
        util::kDefaultFrequency);
  };
  const double pnm = mbps(AttackKind::kImpactPnm);
  const double pum = mbps(AttackKind::kImpactPum);
  const double clflush = mbps(AttackKind::kDramaClflush);
  const double eviction = mbps(AttackKind::kDramaEviction);
  const double dma = mbps(AttackKind::kDmaEngine);
  EXPECT_GT(pum, pnm * 0.99);
  EXPECT_GT(pnm, dma * 1.5);
  EXPECT_GT(pnm, clflush * 2.0);
  EXPECT_GT(clflush, eviction);
  EXPECT_GT(dma, eviction);
}

TEST(AttackOrdering, ImpactThroughputIndependentOfLlcSize) {
  auto mbps = [&](std::uint64_t llc_mb) {
    auto system = make_system(AttackKind::kImpactPnm, llc_mb);
    auto attack = make_attack(AttackKind::kImpactPnm, system);
    return attack->measure(64, 6, 9).throughput_mbps(
        util::kDefaultFrequency);
  };
  const double small = mbps(2);
  const double large = mbps(64);
  EXPECT_NEAR(small, large, 0.05 * small);
}

TEST(AttackOrdering, DramaClflushDegradesWithLlcSize) {
  auto mbps = [&](std::uint64_t llc_mb) {
    auto system = make_system(AttackKind::kDramaClflush, llc_mb);
    auto attack = make_attack(AttackKind::kDramaClflush, system);
    return attack->measure(64, 6, 9).throughput_mbps(
        util::kDefaultFrequency);
  };
  EXPECT_GT(mbps(2), mbps(64) * 1.3);
}

TEST(ImpactPnmTest, CalibratedThresholdSeparatesClusters) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPnm attack(system);
  (void)attack.transmit(util::BitVec::alternating(16));
  const double t = attack.threshold();
  for (std::size_t i = 0; i < 16; ++i) {
    const double latency = attack.last_latencies()[i];
    if (i % 2 == 1) {
      EXPECT_GT(latency, t);
    } else {
      EXPECT_LT(latency, t);
    }
  }
}

TEST(ImpactPnmTest, AllZerosAndAllOnes) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPnm attack(system);
  auto r = attack.transmit(util::BitVec(32, false));
  EXPECT_EQ(r.report.bit_errors(), 0u);
  r = attack.transmit(util::BitVec(32, true));
  EXPECT_EQ(r.report.bit_errors(), 0u);
}

TEST(ImpactPnmTest, SenderStaysMemorySide) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPnm attack(system);
  (void)attack.measure(64, 4, 3);
  // The PMU bypass worked: no sender PEI was routed host-side.
  EXPECT_EQ(attack.sender_pei().pmu().stats().host_decisions, 0u);
  EXPECT_EQ(attack.receiver_pei().pmu().stats().host_decisions, 0u);
}

TEST(ImpactPnmTest, MessageSizesBeyondBankCount) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPnm attack(system);
  util::Xoshiro256 rng(8);
  const auto msg = util::BitVec::random(200, rng);  // > 16 banks, wraps.
  const auto r = attack.transmit(msg);
  EXPECT_EQ(r.report.bit_errors(), 0u);
}

TEST(ImpactPumTest, SingleRowCloneCarriesSixteenBits) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPum attack(system);
  util::Xoshiro256 rng(10);
  const auto msg = util::BitVec::random(16, rng);
  const auto r = attack.transmit(msg);
  EXPECT_EQ(r.decoded, msg);
  // Sender cost is a single clone + sync: far below 16 PEI executions.
  EXPECT_LT(r.report.sender_cycles, 1200u);
}

TEST(ImpactPumTest, ChannelMaterializesNoDramRows) {
  // The channel only clones rows nothing ever wrote, so the functional
  // DataArray must stay empty: the PuM path copies no row contents.
  auto system = make_system(AttackKind::kImpactPum);
  ImpactPum attack(system);
  util::Xoshiro256 rng(2024);
  for (int m = 0; m < 4; ++m) {
    const auto msg = util::BitVec::random(64, rng);
    EXPECT_EQ(attack.transmit(msg).decoded, msg);
  }
  (void)attack.recalibrate();
  EXPECT_EQ(system.controller().data()->materialized_rows(), 0u);
}

TEST(ImpactPumTest, SenderFasterThanPnmSenderByOrderOfMagnitude) {
  sys::SystemConfig config;
  const auto msg = util::BitVec(16, true);
  util::Cycle pnm_sender = 0;
  util::Cycle pum_sender = 0;
  {
    sys::MemorySystem system(config);
    ImpactPnm attack(system);
    (void)attack.transmit(msg);
    pnm_sender = attack.transmit(msg).report.sender_cycles;
  }
  {
    sys::MemorySystem system(config);
    ImpactPum attack(system);
    (void)attack.transmit(msg);
    pum_sender = attack.transmit(msg).report.sender_cycles;
  }
  EXPECT_GT(pnm_sender, 5 * pum_sender);  // Paper: 14x.
}

TEST(ImpactPumTest, WorksWithFewerBanksThanDefault) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  ImpactPumConfig pum_config;
  pum_config.banks = 8;
  ImpactPum attack(system, pum_config);
  util::Xoshiro256 rng(12);
  const auto r = attack.transmit(util::BitVec::random(24, rng));
  EXPECT_EQ(r.report.bit_errors(), 0u);
}

TEST(PnmOffChipTest, HostRateGrowsWithLlc) {
  sys::SystemConfig small_cfg;
  small_cfg.llc_bytes = 2ull << 20;
  sys::MemorySystem small_sys(small_cfg);
  PnmOffChip small_attack(small_sys);

  sys::SystemConfig large_cfg;
  large_cfg.llc_bytes = 64ull << 20;
  sys::MemorySystem large_sys(large_cfg);
  PnmOffChip large_attack(large_sys);

  EXPECT_LT(small_attack.host_rate(), large_attack.host_rate());
}

}  // namespace
}  // namespace impact::attacks
