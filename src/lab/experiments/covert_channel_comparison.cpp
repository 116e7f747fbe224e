// One-line-per-attack comparison of every Fig. 8 covert channel plus the
// analytical Streamline model — the quickest way to see all the channels
// side by side.
#include <cstdio>

#include "attacks/registry.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "model/cache_attack_model.hpp"

namespace impact::lab {
namespace {

int run_covert_channel_comparison(Context&) {
  for (auto kind : attacks::kFig8Attacks) {
    sys::SystemConfig cfg;
    cfg.mapping = attacks::recommended_mapping(kind);
    sys::MemorySystem system(cfg);
    auto attack = attacks::make_attack(kind, system);
    auto report = attack->measure(64, 8, 5);
    std::printf("%-16s %7.2f Mb/s  err %.2f%%  cyc/bit %.0f\n",
                attack->name().c_str(),
                report.throughput_mbps(cfg.frequency()),
                100.0 * report.error_rate(), report.cycles_per_bit());
  }
  model::ExtractedParams p;
  std::printf("%-16s %7.2f Mb/s (analytical)\n", "Streamline",
              model::streamline_mbps(p, util::kDefaultFrequency));
  return 0;
}

}  // namespace

void register_covert_channel_comparison(Registry& r) {
  ExperimentSpec spec;
  spec.name = "covert_channel_comparison";
  spec.description =
      "Every Fig. 8 covert channel side by side, plus the analytical "
      "Streamline model";
  spec.kind = Kind::kExample;
  spec.run = run_covert_channel_comparison;
  r.add(std::move(spec));
}

}  // namespace impact::lab
