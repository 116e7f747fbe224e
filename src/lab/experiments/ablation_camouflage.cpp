// Ablation: a victim-side camouflage defense for PiM-accelerated read
// mapping (extension, in the spirit of the access-pattern-obfuscation
// defenses the paper's §7 surveys: DAGguise, InvisiMem/ObfusMem).
//
// For every real seed-table probe the victim issues d dummy probes to
// uniformly random banks. The attacker's positive observations stop
// correlating with real lookups while the victim pays a proportional
// slowdown — the privacy/performance frontier, measured.
#include <cstdio>
#include <memory>

#include "attacks/side_channel.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_ablation_camouflage(Context&) {
  std::printf("=== bench_ablation_camouflage: dummy-probe obfuscation vs "
              "the RM side channel ===\n(1024-bank device)\n\n");

  util::Table table({"dummies/probe", "attacker error", "probe tput (Mb/s)",
                     "event capture (Mb/s)", "victim slowdown"});
  // Every spy replays one victim plan: holding the last spy's keeps it
  // and its reference alive, so the loop builds and maps them once.
  std::shared_ptr<const attacks::VictimPlan> plan;
  for (const std::uint32_t d : {0u, 1u, 2u, 4u, 8u}) {
    attacks::SideChannelConfig config;
    config.banks = 1024;
    config.reads = 32;
    config.dummy_probes_per_touch = d;
    attacks::ReadMappingSpy spy(config);
    const auto r = spy.run();
    plan = spy.plan();
    table.add_row(
        {std::to_string(d),
         util::Table::num(100.0 * r.probes.error_rate(), 1) + "%",
         util::Table::num(r.probes.throughput_mbps(2.6)),
         util::Table::num(r.capture_throughput_mbps(2.6)),
         util::Table::num(r.victim_slowdown, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Each dummy probe is indistinguishable from a real lookup, so the\n"
      "attacker's positives stop identifying the sample genome's buckets;\n"
      "the cost is the victim's own slowdown — cheaper than CTD for the\n"
      "rest of the system (only the protected application pays), which is\n"
      "the practical niche the paper's defense discussion leaves open.\n");
  return 0;
}

}  // namespace

void register_ablation_camouflage(Registry& r) {
  ExperimentSpec spec;
  spec.name = "ablation_camouflage";
  spec.description =
      "Victim-side dummy-probe obfuscation vs the read-mapping side "
      "channel: privacy/performance frontier";
  spec.kind = Kind::kAblation;
  spec.run = run_ablation_camouflage;
  r.add(std::move(spec));
}

}  // namespace impact::lab
