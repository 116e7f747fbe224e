// Google-benchmark microbenchmarks of the simulator itself: how fast the
// substrate executes simulated operations (useful when sizing experiments,
// not a paper figure).
//
// The BENCHMARK registrations live in this TU so that linking the
// experiment's register function (referenced by register_builtin) pulls
// them in; run_simulator_perf then plays the role BENCHMARK_MAIN() played
// in the old standalone binary, forwarding any --benchmark_* flags the
// caller passed through (Args::extra).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "attacks/impact_pnm.hpp"
#include "cache/cache.hpp"
#include "channel/protocol.hpp"
#include "cache/hierarchy.hpp"
#include "dram/controller.hpp"
#include "exec/sweep.hpp"
#include "graph/multiprog.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "sys/tlb.hpp"
#include "util/rng.hpp"

namespace impact::lab {
namespace {

// Every RNG stream in this driver derives from one base seed via
// exec::derive_seed (the nondet-seed contract; see
// docs/static-analysis.md, rule nondet-seed). The stream index keeps
// the pre-derive_seed seed constant greppable.
constexpr std::uint64_t kSeedBase = 0x5eed;

void BM_DramAccess(benchmark::State& state) {
  dram::DramConfig config;
  dram::MemoryController mc(config);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 1));
  util::Cycle clock = 0;
  for (auto _ : state) {
    const auto addr = rng.below(config.capacity_bytes());
    benchmark::DoNotOptimize(mc.access(addr, clock));
    clock += 100;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DramAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  dram::DramConfig dram_config;
  dram::MemoryController mc(dram_config);
  cache::Hierarchy hierarchy(cache::HierarchyConfig::table2(), mc);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 2));
  util::Cycle clock = 0;
  const std::uint64_t ws = 64ull << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.access(rng.below(ws), clock));
    clock += 20;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HierarchyAccess);

void BM_PeiExecute(benchmark::State& state) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  const auto span = system.vmem().map_row(1, 0, 10);
  system.warm_span(1, span);
  pim::PeiDispatcher pei(pim::PeiConfig{}, system, 1);
  util::Cycle clock = 0;
  for (auto _ : state) {
    const auto col = pei.next_bypass_column(8192, 64);
    benchmark::DoNotOptimize(pei.execute(span.vaddr + col, clock));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PeiExecute);

void BM_CovertChannelBit(benchmark::State& state) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  attacks::ImpactPnm attack(system);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 3));
  // Pre-generate the messages: the timed loop should measure transmit(),
  // not BitVec construction. A small pool cycled round-robin keeps the
  // content varied without perturbing the measurement.
  std::vector<util::BitVec> messages;
  messages.reserve(64);
  for (int i = 0; i < 64; ++i) {
    messages.push_back(util::BitVec::random(16, rng));
  }
  // Threshold calibration runs lazily inside the first transmit; one
  // warmup send hoists it so the timed region measures steady-state
  // transmission only.
  (void)attack.transmit(messages[0]);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.transmit(messages[next]));
    next = (next + 1) % messages.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 16));
}
BENCHMARK(BM_CovertChannelBit);

void BM_ProtocolTransmit(benchmark::State& state) {
  // The framed layer on a fault-free channel: BM_CovertChannelBit plus
  // framing, CRC verification, and feedback accounting. The gap between
  // the two is the protocol's pure overhead (acceptance bound: <= 10%).
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  attacks::ImpactPnm attack(system);
  channel::ProtocolConfig protocol_config;
  protocol_config.payload_bits = 16;
  channel::FramedProtocol protocol(attack, protocol_config);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 7));
  std::vector<util::BitVec> messages;
  messages.reserve(64);
  for (int i = 0; i < 64; ++i) {
    messages.push_back(util::BitVec::random(16, rng));
  }
  // As in BM_CovertChannelBit: the underlying channel calibrates on its
  // first use — hoist that out of the timed region with one warmup frame.
  (void)protocol.send(messages[0]);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.send(messages[next]));
    next = (next + 1) % messages.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 16));
}
BENCHMARK(BM_ProtocolTransmit);

void BM_MultiprogReplay(benchmark::State& state) {
  // One Fig. 11 bar group: the default (fig11) configuration's BFS input
  // replayed under all four row policies. Each iteration starts from a
  // fresh copy of the input, made outside the timed region, so it pays
  // the policy-independent front end once and the DRAM back end four
  // times, as a cold grid does. Items are replayed accesses (both
  // instances, all four cells), comparable to fig11's accesses/s per cell.
  const graph::MultiprogConfig config;
  const graph::WorkloadInput built =
      graph::build_input(config, graph::WorkloadKind::kBFS);
  constexpr dram::RowPolicy kPolicies[] = {
      dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
      dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive};
  std::optional<graph::WorkloadInput> input;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    input.emplace(built);  // A copy starts with a cold front-end memo.
    state.ResumeTiming();
    accesses = 0;
    for (const dram::RowPolicy policy : kPolicies) {
      const auto stats = graph::run_multiprogrammed(config, *input, policy);
      accesses += stats.accesses;
    }
    benchmark::DoNotOptimize(accesses);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * accesses));
}
// Wall time: the front end records on worker threads, whose CPU time the
// calling thread's clock would miss.
BENCHMARK(BM_MultiprogReplay)->UseRealTime();

void BM_MultiprogFrontEnd(benchmark::State& state) {
  // One cold Fig. 11 cell: the default configuration's BFS input under
  // open-row, on a fresh copy made outside the timed region, so each
  // iteration records both instances' front ends (concurrently when
  // IMPACT_THREADS allows) and replays one back end. Items are
  // instance-ops (both instances' trace ops).
  const graph::MultiprogConfig config;
  const graph::WorkloadInput built =
      graph::build_input(config, graph::WorkloadKind::kBFS);
  std::optional<graph::WorkloadInput> input;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    input.emplace(built);  // A copy starts with a cold front-end memo.
    state.ResumeTiming();
    const auto stats = graph::run_multiprogrammed(
        config, *input, dram::RowPolicy::kOpenRow);
    accesses = stats.accesses;
    benchmark::DoNotOptimize(accesses);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * accesses));
}
BENCHMARK(BM_MultiprogFrontEnd)->UseRealTime();

void BM_MultiprogBackEnd(benchmark::State& state) {
  // One Fig. 11 policy cell on an input whose front end is already
  // recorded: the default configuration's BFS input under closed-row, its
  // memo warmed outside the timed region, so each iteration pays only the
  // DRAM back end. Items are DRAM requests replayed (both instances).
  const graph::MultiprogConfig config;
  const graph::WorkloadInput input =
      graph::build_input(config, graph::WorkloadKind::kBFS);
  (void)graph::run_multiprogrammed(config, input,
                                   dram::RowPolicy::kClosedRow);
  const std::uint64_t requests = input.front_end.dram_requests();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::run_multiprogrammed(
        config, input, dram::RowPolicy::kClosedRow));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * requests));
}
BENCHMARK(BM_MultiprogBackEnd);

// --- Per-level microbenchmarks (PR 3): isolate the flat-layout fast
// paths from the full-hierarchy composite above. ---

void BM_CacheHit(benchmark::State& state) {
  // Table 2 LLC shape; a resident footprint cycled round-robin so every
  // access is a tag hit + replacement promotion.
  cache::Cache c(cache::HierarchyConfig::table2().l3);
  const std::uint64_t resident = 4096;
  for (std::uint64_t l = 0; l < resident; ++l) c.fill(l);
  std::uint64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(next, false));
    next = (next + 1) % resident;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissFill(benchmark::State& state) {
  // Random lines over 8x the capacity: mostly misses, each followed by the
  // known-miss install path (victim selection + eviction bookkeeping).
  cache::Cache c(cache::HierarchyConfig::table2().l3);
  const std::uint64_t lines =
      8 * c.config().size_bytes / c.config().line_bytes;
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 4));
  for (auto _ : state) {
    const auto l = rng.below(lines);
    if (!c.access(l, false)) {
      benchmark::DoNotOptimize(c.fill_known_miss(l));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheMissFill);

void BM_EvictViaSet(benchmark::State& state) {
  // The §3.3 eviction-set primitive: one call walks `ways` conflict lines
  // through the LLC. Items = evictions, so items/s is directly comparable
  // across layout changes.
  dram::DramConfig dram_config;
  dram::MemoryController mc(dram_config);
  cache::Hierarchy hierarchy(cache::HierarchyConfig::table2(), mc);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 5));
  util::Cycle clock = 0;
  const std::uint64_t ws = 64ull << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.evict_via_set(rng.below(ws), clock));
    clock += 1000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvictViaSet);

void BM_TlbLookup(benchmark::State& state) {
  // Translations over a warmed 2 MiB footprint (512 pages): L1-DTLB hits
  // with the occasional L2 fill, the common case on every simulated access.
  sys::Tlb tlb;
  const std::uint64_t pages = 512;
  for (std::uint64_t p = 0; p < pages; ++p) tlb.warm(p << 12);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 6));
  for (auto _ : state) {
    const auto vaddr = (rng.below(pages) << 12) | 0x40;
    benchmark::DoNotOptimize(tlb.translate(vaddr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TlbLookup);

int run_simulator_perf(Context& ctx) {
  // Reassemble an argv for benchmark::Initialize from the passthrough
  // arguments (--benchmark_filter=... and friends).
  std::vector<std::string> args;
  args.emplace_back("bench_simulator_perf");
  for (const std::string& a : ctx.args().extra) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());

  benchmark::Initialize(&argc, argv.data());
  if (benchmark::ReportUnrecognizedArguments(argc, argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

void register_simulator_perf(Registry& r) {
  ExperimentSpec spec;
  spec.name = "simulator_perf";
  spec.description =
      "Google-benchmark microbenchmarks of the simulation substrate "
      "(DRAM, caches, PEI, channels)";
  spec.kind = Kind::kPerf;
  spec.bench_role = "micro";
  spec.accepts_extra_args = true;
  spec.run = run_simulator_perf;
  r.add(std::move(spec));
}

}  // namespace impact::lab
