// Ablation: channel robustness under background system load, and what
// error-correcting codes buy the attacker (extension beyond the paper's
// quiet-system evaluation).
//
// A Poisson background process issues DRAM traffic at increasing rates;
// IMPACT-PnM's raw error rate rises with the load, and the attacker's
// standard countermeasures (repetition / Hamming coding) trade rate for
// residual-error suppression.
#include <cstdio>

#include "attacks/impact_pnm.hpp"
#include "channel/coding.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "sys/noise.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_ablation_noise(Context&) {
  std::printf("=== bench_ablation_noise: IMPACT-PnM under background load "
              "===\n\n");

  util::Table table({"noise (acc/kcyc)", "raw error", "uncoded goodput",
                     "rep-3 residual", "rep-3 goodput", "H(7,4) residual",
                     "H(7,4) goodput"});

  for (const double rate : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    sys::SystemConfig config;
    sys::MemorySystem system(config);
    sys::NoiseConfig noise_config;
    noise_config.accesses_per_kilocycle = rate;
    sys::BackgroundNoise noise(noise_config, system, /*actor=*/42);
    attacks::ImpactPnm attack(system);
    attack.set_noise(&noise);

    // Seed pinned: stream shared with the ablation_faults experiment; tables recorded in EXPERIMENTS.md.
    // SIMLINT-ALLOW(nondet-seed): recorded outputs depend on this stream.
    util::Xoshiro256 rng(51);
    const auto message = util::BitVec::random(256, rng);

    const auto uncoded = channel::transmit_coded(
        attack, message, channel::CodeKind::kNone, config.frequency());
    const auto rep = channel::transmit_coded(
        attack, message, channel::CodeKind::kRepetition3,
        config.frequency());
    const auto ham = channel::transmit_coded(
        attack, message, channel::CodeKind::kHamming74,
        config.frequency());

    table.add_row(
        {util::Table::num(rate, 1),
         util::Table::num(100.0 * uncoded.raw_error_rate, 2) + "%",
         util::Table::num(uncoded.goodput_mbps) + " Mb/s",
         std::to_string(rep.residual_errors),
         util::Table::num(rep.goodput_mbps) + " Mb/s",
         std::to_string(ham.residual_errors),
         util::Table::num(ham.goodput_mbps) + " Mb/s"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Coding keeps the channel usable under load: repetition-3\n"
              "suppresses residual errors at 1/3 rate; Hamming(7,4) at 4/7\n"
              "rate corrects isolated flips.\n");
  return 0;
}

}  // namespace

void register_ablation_noise(Registry& r) {
  ExperimentSpec spec;
  spec.name = "ablation_noise";
  spec.description =
      "IMPACT-PnM under Poisson background load: raw error vs "
      "repetition/Hamming coding trade-offs";
  spec.kind = Kind::kAblation;
  spec.run = run_ablation_noise;
  r.add(std::move(spec));
}

}  // namespace impact::lab
