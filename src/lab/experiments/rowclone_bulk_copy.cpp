// The benign face of the substrate: RowClone as a bulk data-movement
// accelerator (what PuM is actually *for*), demonstrating the functional
// data model and the latency advantage over the CPU copy path.
//
//   $ impact run rowclone_bulk_copy
#include <cstdio>
#include <vector>

#include "exec/sweep.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "pim/rowclone.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"

namespace impact::lab {
namespace {

// Every RNG stream in this driver derives from one base seed via
// exec::derive_seed (the nondet-seed contract; see
// docs/static-analysis.md, rule nondet-seed). The stream index keeps
// the pre-derive_seed seed constant greppable.
constexpr std::uint64_t kSeedBase = 0x5eed;

int run_rowclone_bulk_copy(Context&) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  const dram::ActorId app = 1;

  // A source and destination "page pool" spanning every bank at rows 8/9.
  const auto src = system.vmem().map_row_span(app, 8);
  const auto dst = system.vmem().map_row_span(app, 9);
  system.warm_span(app, src);
  system.warm_span(app, dst);

  // Fill the source rows with recognizable data.
  auto* data = system.controller().data();
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 2024));
  const std::uint32_t banks = system.controller().banks();
  std::vector<std::uint8_t> payload(64);
  for (std::uint32_t b = 0; b < banks; ++b) {
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    data->write(dram::DramAddress{b, 8, 0}, payload);
  }

  // Bulk copy all 64 banks' rows (512 KiB) with ONE masked RowClone.
  pim::RowCloneConfig rc_config;
  rc_config.blocking = true;  // Wait for the copy (a benign app would).
  pim::RowCloneUnit unit(rc_config, system, app);
  util::Cycle pim_clock = 0;
  const auto result = unit.execute(
      pim::RowCloneRequest{src.vaddr, dst.vaddr, ~0ull}, pim_clock);
  std::printf("RowClone: copied %u rows (%u KiB) in %llu cycles "
              "(%.1f ns)\n",
              banks, banks * 8192 / 1024,
              static_cast<unsigned long long>(result.latency),
              static_cast<double>(result.latency) / config.freq_ghz);

  // Verify the data actually moved.
  std::size_t verified = 0;
  std::vector<std::uint8_t> check(8192);
  std::vector<std::uint8_t> expect(8192);
  for (std::uint32_t b = 0; b < banks; ++b) {
    data->read(dram::DramAddress{b, 8, 0}, expect);
    data->read(dram::DramAddress{b, 9, 0}, check);
    if (check == expect) ++verified;
  }
  std::printf("verified %zu/%u rows byte-identical\n", verified, banks);

  // CPU copy path for comparison: load + store per cache line through the
  // cache hierarchy.
  util::Cycle cpu_clock = 0;
  for (std::uint64_t off = 0; off < src.bytes; off += 64) {
    (void)system.load(app, src.vaddr + off, cpu_clock, /*pc=*/1);
    (void)system.store(app, dst.vaddr + off, cpu_clock, /*pc=*/2);
  }
  std::printf("CPU copy of the same data: %llu cycles -> RowClone is "
              "%.0fx faster\n",
              static_cast<unsigned long long>(cpu_clock),
              static_cast<double>(cpu_clock) /
                  static_cast<double>(result.latency));
  std::printf("\n(The same parallel single-command reach over all banks is\n"
              "what IMPACT-PuM turns into a 16-bit-per-operation covert\n"
              "channel.)\n");
  return 0;
}

}  // namespace

void register_rowclone_bulk_copy(Registry& r) {
  ExperimentSpec spec;
  spec.name = "rowclone_bulk_copy";
  spec.description =
      "RowClone as a benign bulk-copy accelerator vs the CPU copy path";
  spec.kind = Kind::kExample;
  spec.run = run_rowclone_bulk_copy;
  r.add(std::move(spec));
}

}  // namespace impact::lab
