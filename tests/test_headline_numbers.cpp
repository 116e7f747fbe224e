// Golden regression tests: pin the headline reproduction numbers so that
// future substrate changes that silently break the calibration fail
// loudly. Tolerances are deliberately tight around the values recorded in
// EXPERIMENTS.md (everything is seeded and deterministic, so drift means
// a semantic change, not noise).
#include <gtest/gtest.h>

#include "attacks/registry.hpp"
#include "dram/config.hpp"
#include "graph/multiprog.hpp"
#include "store/cell_runner.hpp"

namespace impact {
namespace {

double attack_mbps(attacks::AttackKind kind, std::uint64_t llc_mb = 8) {
  sys::SystemConfig config;
  config.llc_bytes = llc_mb << 20;
  config.mapping = attacks::recommended_mapping(kind);
  sys::MemorySystem system(config);
  auto attack = attacks::make_attack(kind, system);
  return attack->measure(64, 12, 21).throughput_mbps(config.frequency());
}

TEST(Headline, RowBufferTimingGap) {
  const auto timing = dram::DramConfig{}.derived_timing();
  EXPECT_EQ(timing.conflict_latency() - timing.hit_latency(), 72u);
}

TEST(Headline, ImpactPnmThroughput) {
  // Paper: 12.87 Mb/s; recorded: 13.57.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kImpactPnm), 13.57, 0.5);
}

TEST(Headline, ImpactPumThroughput) {
  // Paper: 14.16 Mb/s; recorded: 14.45.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kImpactPum), 14.45, 0.5);
}

TEST(Headline, DmaEngineThroughput) {
  // Paper: 5.27 Mb/s; recorded: 5.02.
  EXPECT_NEAR(attack_mbps(attacks::AttackKind::kDmaEngine), 5.02, 0.4);
}

TEST(Headline, DramaClflushDeclineAndRatio) {
  // Recorded: 5.81 (2 MB) -> 3.43 (64 MB); IMPACT-PnM / worst >= ~3.9x.
  const double small = attack_mbps(attacks::AttackKind::kDramaClflush, 2);
  const double large = attack_mbps(attacks::AttackKind::kDramaClflush, 64);
  EXPECT_NEAR(small, 5.81, 0.5);
  EXPECT_NEAR(large, 3.43, 0.5);
  const double pnm = attack_mbps(attacks::AttackKind::kImpactPnm, 64);
  EXPECT_GT(pnm / large, 3.5);
}

TEST(Headline, DefenseOverheadBandsViaCellRunner) {
  // Fig. 11 trend at reduced scale (8x smaller input keeps this test in
  // CI-friendly time): CTD costs more than CRP on every workload, with
  // both averages pinned at the recorded values for this configuration
  // (full scale records CRP 13.6% / CTD 26.1%; see `impact run fig11`).
  // Run through store::CellRunner on a pool — the path fig11 uses.
  graph::MultiprogConfig config;
  config.rmat_scale = 12;
  config.edge_count = 32768;
  // Shrink the hierarchy with the input to stay conflict-bound (the
  // regime where the defenses cost anything).
  config.system.cache_scale = 512;
  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  store::ResultCache cache;
  store::WorkloadStore workloads;
  exec::ThreadPool pool;
  store::CellRunner runner(cache, workloads, &pool);
  const auto grid =
      runner.defense_matrix(config, graph::kAllWorkloads, kPolicies);
  ASSERT_TRUE(grid.ok()) << grid.report.summary();
  const std::size_t n = std::size(graph::kAllWorkloads);
  double crp_avg = 0.0;
  double ctd_avg = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    const auto& cells = grid.cells[w];
    ASSERT_GT(cells[0].stats.cycles, 0u) << to_string(graph::kAllWorkloads[w]);
    const auto overhead = [&](std::size_t p) {
      return static_cast<double>(cells[p].stats.cycles) /
                 static_cast<double>(cells[0].stats.cycles) -
             1.0;
    };
    const double crp = overhead(1);
    const double ctd = overhead(2);
    EXPECT_GE(ctd, crp) << to_string(graph::kAllWorkloads[w]);
    crp_avg += crp / n;
    ctd_avg += ctd / n;
  }
  EXPECT_NEAR(crp_avg, 0.0725, 0.02);
  EXPECT_NEAR(ctd_avg, 0.1253, 0.02);

  // The grid must agree bit-for-bit with the single-workload entry point
  // (same seeds, fresh system per cell).
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    EXPECT_EQ(graph::run_multiprogrammed(config, graph::kAllWorkloads[1],
                                         kPolicies[p]),
              grid.cells[1][p].stats)
        << to_string(kPolicies[p]);
  }
}

TEST(Headline, AdaptiveTracksCrpOnCc) {
  // fig11's claim for the adaptive policy, on one full-scale kernel: it
  // keeps few of the open row's hits, and it costs about what CRP costs
  // (recorded for CC: row-hit rate 0.84 open-row, CRP 22.0%, adaptive
  // 21.7%).
  const graph::MultiprogConfig config;
  const graph::WorkloadInput input =
      graph::build_input(config, graph::WorkloadKind::kCC);
  const auto run = [&](dram::RowPolicy policy) {
    return graph::run_multiprogrammed(config, input, policy);
  };
  const graph::RunStats open_row = run(dram::RowPolicy::kOpenRow);
  const graph::RunStats crp = run(dram::RowPolicy::kClosedRow);
  const graph::RunStats adaptive = run(dram::RowPolicy::kAdaptive);
  EXPECT_LT(adaptive.row_hit_rate, 0.1 * open_row.row_hit_rate);
  const auto overhead = [&](const graph::RunStats& r) {
    return static_cast<double>(r.cycles) /
               static_cast<double>(open_row.cycles) -
           1.0;
  };
  EXPECT_NEAR(overhead(adaptive), overhead(crp), 0.01);
}

TEST(Headline, ImpactIsLlcSizeInvariant) {
  const double at2 = attack_mbps(attacks::AttackKind::kImpactPum, 2);
  const double at64 = attack_mbps(attacks::AttackKind::kImpactPum, 64);
  EXPECT_DOUBLE_EQ(at2, at64);  // Exactly flat: no cache on the path.
}

}  // namespace
}  // namespace impact
