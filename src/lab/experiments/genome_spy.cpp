// Side-channel demo: leak a victim's read-mapping access pattern through
// PiM probes (§4.3).
//
//   $ impact run genome_spy [banks]
//
// Runs a read-mapping victim on a PiM device with the given bank count
// (default 1024) while an attacker sweeps the banks, and reports the
// probe-decision accuracy, leakage throughput, and per-observation
// precision of the leaked bucket information.
#include <cstdio>

#include "attacks/side_channel.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"

namespace impact::lab {
namespace {

int run_genome_spy(Context& ctx) {
  attacks::SideChannelConfig config;
  config.banks = ctx.u32("banks");
  config.reads = 32;

  std::printf("PiM device: %u banks, shared seed table: %u buckets "
              "(%u entries per bank)\n",
              config.banks, config.table.buckets,
              config.table.buckets / config.banks);

  attacks::ReadMappingSpy spy(config);
  const auto result = spy.run();

  std::printf("victim mapping accuracy : %.1f%%\n",
              100.0 * result.victim_accuracy);
  std::printf("attacker threshold      : %.0f cycles\n", result.threshold);
  std::printf("probe observations      : %zu (error %.2f%%)\n",
              result.probes.observations,
              100.0 * result.probes.error_rate());
  std::printf("leak throughput         : %.2f Mb/s\n",
              result.probes.throughput_mbps(2.6));
  std::printf("victim seed events      : %zu (captured %.1f%%, "
              "%.2f Mb/s event capture)\n",
              result.victim_seed_events, 100.0 * result.capture_rate(),
              result.capture_throughput_mbps(2.6));
  std::printf("precision               : %u candidate buckets/hit "
              "(%.1f bits/observation)\n",
              result.precision.entries_per_bank,
              result.precision.bits_per_observation);
  return 0;
}

}  // namespace

void register_genome_spy(Registry& r) {
  ExperimentSpec spec;
  spec.name = "genome_spy";
  spec.description =
      "Read-mapping side channel (Fig. 10 setting): bank-sweep probes "
      "against a genomics victim";
  spec.kind = Kind::kExample;
  spec.params = {{"banks", "PiM device bank count (Fig. 10 x-axis)",
                  "1024"}};
  spec.positional = {"banks"};
  spec.run = run_genome_spy;
  r.add(std::move(spec));
}

}  // namespace impact::lab
