// Quantifying §6's qualitative MPR drawbacks: app-count limits, memory
// underutilization from bank-granular allocation, and duplication of
// shared data (an extension — the paper discusses but does not measure
// these).
#include <cstdio>
#include <vector>

#include "defense/mpr_model.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_mpr_utilization(Context&) {
  std::printf("=== bench_mpr_utilization: the price of bank partitioning "
              "===\n\n");

  dram::DramConfig device;  // Table 2: 64 banks x 512 MiB.
  std::printf("device: %u banks x %llu MiB per bank\n\n",
              device.total_banks(),
              static_cast<unsigned long long>(device.bank_bytes() >> 20));

  util::Table table({"apps requested", "mean footprint", "admitted (MPR)",
                     "utilization (MPR)", "duplication",
                     "utilization (shared)"});

  // Seed pinned: EXPERIMENTS.md records the 27-of-64 admission table from this stream.
  // SIMLINT-ALLOW(nondet-seed): recorded outputs depend on this stream.
  util::Xoshiro256 rng(71);
  for (const std::uint32_t napps : {8u, 16u, 32u, 64u, 128u}) {
    std::vector<defense::AppDemand> apps;
    std::uint64_t footprint_sum = 0;
    for (std::uint32_t i = 0; i < napps; ++i) {
      defense::AppDemand app;
      // Private footprints from 32 MiB to 1.5 GiB, plus a 256 MiB shared
      // input (the Fig. 11 scenario: instances sharing one graph).
      app.private_bytes = (32ull + rng.below(1504)) << 20;
      app.shared_bytes = 256ull << 20;
      footprint_sum += app.private_bytes + app.shared_bytes;
      apps.push_back(app);
    }
    const auto mpr = defense::evaluate_mpr(device, apps);
    const auto shared = defense::evaluate_unpartitioned(device, apps);
    table.add_row(
        {std::to_string(napps),
         util::Table::num(static_cast<double>(footprint_sum / napps >> 20),
                          0) +
             " MiB",
         std::to_string(mpr.apps_admitted) + "/" + std::to_string(napps),
         util::Table::num(100.0 * mpr.utilization(), 1) + "%",
         util::Table::num(
             static_cast<double>(mpr.duplication_bytes >> 20), 0) +
             " MiB",
         util::Table::num(100.0 * shared.utilization(), 1) + "%"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Bank-granular exclusive allocation rejects applications once banks\n"
      "run out, strands capacity inside partially used banks, and forces\n"
      "per-app copies of shared data — the three §6 drawbacks, measured.\n");
  return 0;
}

}  // namespace

void register_mpr_utilization(Registry& r) {
  ExperimentSpec spec;
  spec.name = "mpr_utilization";
  spec.description =
      "MPR bank-partitioning cost model: admission limits, stranded "
      "capacity, shared-data duplication";
  spec.kind = Kind::kExtension;
  spec.run = run_mpr_utilization;
  r.add(std::move(spec));
}

}  // namespace impact::lab
