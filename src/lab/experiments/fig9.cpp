// Fig. 9: breakdown of a 16-bit transmission — cycles the sender spends
// sending vs cycles the receiver spends reading, for IMPACT-PnM and
// IMPACT-PuM.
//
// The reproduced shape: the PuM sender transmits the whole message with
// ONE masked RowClone and is an order of magnitude (paper: 14x) faster
// than the PnM sender's 16 sequential PEIs, yet end-to-end PuM is only
// ~10% faster because the PnM sender/receiver pipeline already overlaps
// most of the sender's latency.
#include <cstdio>

#include "attacks/impact_pnm.hpp"
#include "attacks/impact_pum.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "sys/system.hpp"
#include "util/bitvec.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_fig9(Context&) {
  sys::SystemConfig config;
  std::printf("=== bench_fig9: sender/receiver breakdown (16 bits) ===\n\n");

  // All-ones stresses the sender maximally (every bit needs interference).
  const auto message = util::BitVec::from_string("1111111111111111");

  channel::ChannelReport pnm;
  channel::ChannelReport pum;
  {
    sys::MemorySystem system(config);
    attacks::ImpactPnm attack(system);
    (void)attack.transmit(message);  // Warm + calibrated by first call.
    pnm = attack.transmit(message).report;
  }
  {
    sys::MemorySystem system(config);
    attacks::ImpactPum attack(system);
    (void)attack.transmit(message);
    pum = attack.transmit(message).report;
  }

  util::Table table({"variant", "sender (cyc)", "receiver (cyc)",
                     "elapsed (cyc)", "throughput (Mb/s)"});
  for (const auto& [name, rep] :
       {std::pair{"IMPACT-PnM", pnm}, std::pair{"IMPACT-PuM", pum}}) {
    table.add_row({name, util::Table::num(rep.sender_cycles, 0),
                   util::Table::num(rep.receiver_cycles, 0),
                   util::Table::num(rep.elapsed_cycles, 0),
                   util::Table::num(rep.throughput_mbps(config.frequency()))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("PuM sender speedup over PnM sender: %.1fx (paper: 14x)\n",
              static_cast<double>(pnm.sender_cycles) /
                  static_cast<double>(pum.sender_cycles));
  std::printf("PuM end-to-end advantage: %.1f%% (paper: ~10%%)\n",
              100.0 * (static_cast<double>(pnm.elapsed_cycles) /
                           static_cast<double>(pum.elapsed_cycles) -
                       1.0));
  return 0;
}

}  // namespace

void register_fig9(Registry& r) {
  ExperimentSpec spec;
  spec.name = "fig9";
  spec.description =
      "Sender/receiver cycle breakdown of a 16-bit transmission for "
      "IMPACT-PnM and IMPACT-PuM";
  spec.kind = Kind::kFigure;
  spec.run = run_fig9;
  r.add(std::move(spec));
}

}  // namespace impact::lab
