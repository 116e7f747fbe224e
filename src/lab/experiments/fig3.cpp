// Fig. 3: impact of LLC *associativity* on covert-channel throughput and
// eviction latency (16 MB LLC, 2 - 128 ways).
//
// An eviction set needs one congruent load per way, so the baseline
// attack's cost grows with associativity while the direct attack stays
// flat.
#include <cstdio>

#include "attacks/registry.hpp"
#include "cache/latency_model.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "model/cache_attack_model.hpp"
#include "sys/system.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_fig3(Context&) {
  std::printf("=== bench_fig3: LLC associativity sweep (16 MB) ===\n\n");

  const cache::LlcLatencyModel llc_model;
  constexpr std::uint64_t kLlcBytes = 16ull << 20;
  util::Table table({"LLC ways", "LLC lookup (cyc)", "eviction lat (cyc)",
                     "baseline (Mb/s)", "simulated eviction (Mb/s)",
                     "direct (Mb/s)"});

  for (const std::uint32_t ways : {2, 4, 8, 16, 32, 64, 128}) {
    model::ExtractedParams p;
    p.llc_latency = llc_model.latency(kLlcBytes, ways);
    p.llc_ways = ways;

    const double evict = model::eviction_latency(p);
    const double t_bit = evict + p.dram_avg() + p.full_lookup() +
                         p.measurement_overhead;
    const double baseline_mbps = util::kDefaultFrequency.hz() / t_bit / 1e6;

    sys::SystemConfig cfg;
    cfg.llc_bytes = kLlcBytes;
    cfg.llc_ways = ways;
    cfg.mapping =
        attacks::recommended_mapping(attacks::AttackKind::kDramaEviction);
    sys::MemorySystem evict_system(cfg);
    auto evict_attack = attacks::make_attack(
        attacks::AttackKind::kDramaEviction, evict_system);
    const auto evict_report = evict_attack->measure(64, 4, 12);

    sys::SystemConfig direct_cfg;
    direct_cfg.llc_bytes = kLlcBytes;
    direct_cfg.llc_ways = ways;
    sys::MemorySystem direct_system(direct_cfg);
    auto direct_attack = attacks::make_attack(
        attacks::AttackKind::kDirectAccess, direct_system);
    const auto direct_report = direct_attack->measure(64, 4, 12);

    table.add_row(
        {std::to_string(ways), util::Table::num(p.llc_latency, 0),
         util::Table::num(evict, 0), util::Table::num(baseline_mbps),
         util::Table::num(evict_report.throughput_mbps(cfg.frequency())),
         util::Table::num(
             direct_report.throughput_mbps(direct_cfg.frequency()))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper: baseline throughput falls sharply with the way count\n"
              "(eviction latency grows ~linearly); direct access is flat.\n");
  return 0;
}

}  // namespace

void register_fig3(Registry& r) {
  ExperimentSpec spec;
  spec.name = "fig3";
  spec.description =
      "LLC associativity sweep: covert-channel throughput and eviction "
      "latency (16 MB, 2-128 ways)";
  spec.kind = Kind::kFigure;
  spec.run = run_fig3;
  r.add(std::move(spec));
}

}  // namespace impact::lab
