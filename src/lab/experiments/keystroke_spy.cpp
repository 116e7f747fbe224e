// DRAMA's classic keystroke side channel (§2.3, [68]) rebuilt on PiM
// probes: a victim's keystroke handler touches a fixed buffer row; the
// attacker polls that bank with timed PEIs and recovers the keystroke
// *timing* — the basis for inter-keystroke-interval password inference.
//
//   $ impact run keystroke_spy
#include <cstdio>
#include <vector>

#include "exec/sweep.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace impact::lab {
namespace {

// Every RNG stream in this driver derives from one base seed via
// exec::derive_seed (the nondet-seed contract; see
// docs/static-analysis.md, rule nondet-seed). The stream index keeps
// the pre-derive_seed seed constant greppable.
constexpr std::uint64_t kSeedBase = 0x5eed;

int run_keystroke_spy(Context&) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  const dram::ActorId victim = 1;
  const dram::ActorId attacker = 2;
  const dram::BankId target_bank = 9;

  // Victim: keyboard ISR buffer in row 40 of bank 9. Attacker massages a
  // probe row into the same bank (co-location via mapping knowledge; see
  // attacks/mapping_recon for how that knowledge is obtained).
  const auto victim_buf = system.vmem().map_row(victim, target_bank, 40);
  const auto probe_row = system.vmem().map_row(attacker, target_bank, 41);
  system.warm_span(victim, victim_buf);
  system.warm_span(attacker, probe_row);

  pim::PeiDispatcher victim_pei(pim::PeiConfig{}, system, victim);
  pim::PeiDispatcher attacker_pei(pim::PeiConfig{}, system, attacker);

  // Generate keystrokes: human-ish inter-key intervals of 80-200 ms scaled
  // down 1000x to keep the demo fast (80-200 us of simulated time).
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 2025));
  std::vector<util::Cycle> true_times;
  util::Cycle t = 50'000;
  for (int k = 0; k < 12; ++k) {
    t += static_cast<util::Cycle>(2.6e3 * rng.range(80, 200));
    true_times.push_back(t);
  }

  // Co-simulate: the attacker polls; the victim fires at its timestamps.
  std::vector<util::Cycle> detections;
  util::Cycle attacker_clock = 0;
  std::size_t next_key = 0;
  const auto& ts = system.timestamp();
  double threshold = 0.0;
  {  // Calibrate: probe twice (hit), disturb (conflict), probe.
    util::Cycle c = 0;
    auto probe = [&] {
      const auto col = attacker_pei.next_bypass_column(8192, 64);
      const util::Cycle t0 = ts.read(c);
      (void)attacker_pei.execute(probe_row.vaddr + col, c);
      return static_cast<double>(ts.read_fast(c) - t0);
    };
    (void)probe();
    const double hit = probe();
    util::Cycle vc = c;
    (void)victim_pei.execute(victim_buf.vaddr, vc);
    c = vc;
    const double conflict = probe();
    threshold = (hit + conflict) / 2.0;
    attacker_clock = c;
  }

  while (next_key < true_times.size()) {
    // Victim keystroke handler fires when its time comes. It appends to a
    // ring buffer, so each keystroke touches the next 64 B slot — which
    // also keeps the PMU from promoting the handler's PEI host-side (a
    // single hot slot would be served from the cache and become invisible
    // to the attacker; see pim/locality_monitor.hpp).
    if (true_times[next_key] <= attacker_clock) {
      util::Cycle vc = true_times[next_key];
      (void)victim_pei.execute(victim_buf.vaddr + (next_key % 128) * 64,
                               vc);
      ++next_key;
      continue;
    }
    // Attacker probe.
    const auto col = attacker_pei.next_bypass_column(8192, 64);
    const util::Cycle t0 = ts.read(attacker_clock);
    (void)attacker_pei.execute(probe_row.vaddr + col, attacker_clock);
    const util::Cycle t1 = ts.read_fast(attacker_clock);
    if (static_cast<double>(t1 - t0) > threshold) {
      detections.push_back(attacker_clock);
    }
    attacker_clock += 400;  // Polling interval.
  }
  // Drain: catch the final keystroke's evidence.
  for (int i = 0; i < 3; ++i) {
    const auto col = attacker_pei.next_bypass_column(8192, 64);
    const util::Cycle t0 = ts.read(attacker_clock);
    (void)attacker_pei.execute(probe_row.vaddr + col, attacker_clock);
    const util::Cycle t1 = ts.read_fast(attacker_clock);
    if (static_cast<double>(t1 - t0) > threshold) {
      detections.push_back(attacker_clock);
    }
    attacker_clock += 400;
  }

  std::printf("true keystrokes : %zu\n", true_times.size());
  std::printf("detections      : %zu\n", detections.size());
  util::OnlineStats delay;
  std::size_t matched = 0;
  for (std::size_t k = 0; k < true_times.size() && k < detections.size();
       ++k) {
    const auto d = static_cast<double>(detections[k]) -
                   static_cast<double>(true_times[k]);
    if (d >= 0 && d < 3000) {
      ++matched;
      delay.add(d / 2.6);  // ns
    }
  }
  std::printf("matched within one polling interval: %zu "
              "(mean detection delay %.0f ns)\n",
              matched, delay.mean());
  std::printf("\nRecovered inter-keystroke intervals (us, attacker vs "
              "truth):\n");
  for (std::size_t k = 1; k < detections.size() && k < true_times.size();
       ++k) {
    std::printf("  #%zu: %7.1f vs %7.1f\n", k,
                static_cast<double>(detections[k] - detections[k - 1]) /
                    2600.0,
                static_cast<double>(true_times[k] - true_times[k - 1]) /
                    2600.0);
  }
  return 0;
}

}  // namespace

void register_keystroke_spy(Registry& r) {
  ExperimentSpec spec;
  spec.name = "keystroke_spy";
  spec.description =
      "DRAMA-style keystroke timing side channel rebuilt on timed PEI "
      "probes";
  spec.kind = Kind::kExample;
  spec.run = run_keystroke_spy;
  r.add(std::move(spec));
}

}  // namespace impact::lab
