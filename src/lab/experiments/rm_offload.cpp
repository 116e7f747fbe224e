// Context bench: why read mapping gets offloaded to PiM at all (§4.3
// motivation). Replays the mapper's memory-touch trace through (a) the
// PEI path and (b) the CPU cached path, comparing cycles per read — the
// data-movement reduction that makes PiM-accelerated RM attractive is the
// same direct access the side channel exploits.
#include <cstdio>

#include "genomics/mapper.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_rm_offload(Context&) {
  std::printf("=== bench_rm_offload: read-mapping seeding, PiM vs CPU "
              "===\n\n");

  // Build the reference + table once (pure algorithm).
  // Seed pinned: EXPERIMENTS.md records 1.22/2.49 us-per-read from this exact stream.
  // SIMLINT-ALLOW(nondet-seed): recorded outputs depend on this stream.
  util::Xoshiro256 rng(77);
  const auto genome = genomics::Genome::synthesize(1 << 20, rng);
  genomics::SeedTableConfig table_config;
  const std::uint32_t banks = 1024;
  genomics::SeedTable table(table_config, banks);
  table.build(genome);
  genomics::ReferenceLayout layout{banks, 32, 8192, 8192 * 4};

  // Record the mapper's touch trace for a read batch.
  std::vector<genomics::MemoryTouch> trace;
  genomics::ReadMapper mapper(
      genome, table, layout, genomics::MapperConfig{},
      [&](const genomics::MemoryTouch& t) { trace.push_back(t); });
  const auto reads =
      genomics::sample_reads(genome, 48, genomics::ReadSimConfig{}, rng);
  std::size_t mapped = 0;
  for (const auto& read : reads) mapped += mapper.map(read).mapped;

  // Replay through a PiM device.
  sys::SystemConfig config;
  config.dram.channels = 1;
  config.dram.ranks = 1;
  config.dram.banks_per_rank = banks;
  config.dram.rows_per_bank = 256;
  config.dram.subarray_rows = 256;
  sys::MemorySystem system(config);
  // The hash table is shared memory: actor 1 maps each row once and the
  // CPU-path actor (2) maps the same frames via shared mappings.
  auto vaddr_of = [&, cache = std::unordered_map<std::uint64_t,
                                                 sys::VAddr>{}](
                      const genomics::TableLocation& loc) mutable {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(loc.bank) << 32) | loc.row;
    auto it = cache.find(key);
    if (it == cache.end()) {
      const auto span = system.vmem().map_row(1, loc.bank, loc.row);
      system.vmem().share(1, 2, span);
      system.warm_span(1, span);
      system.warm_span(2, span);
      it = cache.emplace(key, span.vaddr).first;
    }
    return it->second + loc.col;
  };

  pim::PeiDispatcher pei(pim::PeiConfig{}, system, 1);
  util::Cycle pim_clock = 0;
  for (const auto& t : trace) {
    pim_clock += 40;  // Hashing / bookkeeping between offloads.
    (void)pei.execute(vaddr_of(t.location), pim_clock);
  }

  util::Cycle cpu_clock = 0;
  for (const auto& t : trace) {
    cpu_clock += 40;
    (void)system.load(2, vaddr_of(t.location), cpu_clock,
                      /*pc=*/t.bucket % 7);
  }

  util::Table out({"path", "cycles total", "cycles/read", "us/read"});
  const double n = static_cast<double>(reads.size());
  out.add_row({"PiM (PEI offload)", util::Table::num(pim_clock, 0),
               util::Table::num(pim_clock / n, 0),
               util::Table::num(pim_clock / n / 2600.0, 2)});
  out.add_row({"CPU (cached loads)", util::Table::num(cpu_clock, 0),
               util::Table::num(cpu_clock / n, 0),
               util::Table::num(cpu_clock / n / 2600.0, 2)});
  std::printf("reads mapped: %zu/%zu, DRAM-visible touches: %zu\n\n",
              mapped, reads.size(), trace.size());
  std::printf("%s\n", out.render().c_str());
  std::printf("Seeding's hash-table probes have no reuse, so the cache\n"
              "hierarchy only adds lookup latency and pollution: the PiM\n"
              "path wins — and hands user space the direct DRAM access\n"
              "IMPACT weaponizes.\n");
  return 0;
}

}  // namespace

void register_rm_offload(Registry& r) {
  ExperimentSpec spec;
  spec.name = "rm_offload";
  spec.description =
      "Read-mapping seeding offload comparison: PEI path vs CPU cached "
      "path, cycles per read";
  spec.kind = Kind::kExtension;
  spec.run = run_rm_offload;
  r.add(std::move(spec));
}

}  // namespace impact::lab
