// §3.1 microbenchmark: the row-buffer timing channel.
//
// Reproduces the observation that "a row buffer conflict takes 74 CPU
// cycles more than a hit, which is large enough to detect": measures
// hit / empty / conflict latencies at the memory controller and as seen by
// a user-space attacker through rdtscp brackets, and prints the latency
// histogram of a mixed access pattern.
#include <cstdio>

#include "dram/controller.hpp"
#include "exec/sweep.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "sys/system.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

// Every RNG stream in this experiment derives from one base seed via
// exec::derive_seed (the nondet-seed contract; see
// docs/static-analysis.md, rule nondet-seed). The stream index keeps
// the pre-derive_seed seed constant greppable.
constexpr std::uint64_t kSeedBase = 0x5eed;

int run_rowbuffer(Context&) {
  sys::SystemConfig config;
  std::printf("=== bench_rowbuffer (§3.1) ===\n%s\n",
              config.describe().c_str());

  sys::MemorySystem system(config);
  auto& mc = system.controller();
  util::Cycle clock = 1000;

  // Controller-level latencies.
  const auto empty = mc.access_row(0, 100, clock);
  clock = empty.completion + 500;
  const auto hit = mc.access_row(0, 100, clock);
  clock = hit.completion + 500;
  const auto conflict = mc.access_row(0, 200, clock);
  clock = conflict.completion + 500;

  util::Table t({"access", "latency (cycles)", "outcome"});
  t.add_row({"activation (empty bank)", util::Table::num(empty.latency, 0),
             to_string(empty.outcome)});
  t.add_row({"row-buffer hit", util::Table::num(hit.latency, 0),
             to_string(hit.outcome)});
  t.add_row({"row-buffer conflict", util::Table::num(conflict.latency, 0),
             to_string(conflict.outcome)});
  std::printf("%s\n", t.render().c_str());
  std::printf("conflict - hit gap: %llu cycles (paper: 74)\n\n",
              static_cast<unsigned long long>(conflict.latency -
                                              hit.latency));

  // User-space view: timed loads alternating between hit and conflict
  // patterns, as an attacker would measure them.
  const auto row_a = system.vmem().map_row(1, 3, 10);
  const auto row_b = system.vmem().map_row(1, 3, 11);
  system.warm_span(1, row_a);
  system.warm_span(1, row_b);
  util::Histogram histogram(0, 400, 40);
  util::Xoshiro256 rng(exec::derive_seed(kSeedBase, 3));
  const auto& ts = system.timestamp();
  for (int i = 0; i < 4000; ++i) {
    // Prime: open row A.
    (void)system.direct_access(1, row_a.vaddr, clock);
    // Optionally disturb: open row B so the measured access conflicts.
    const bool conflict_access = rng.chance(0.5);
    if (conflict_access) (void)system.direct_access(1, row_b.vaddr, clock);
    // Measure an access to row A.
    const util::Cycle t0 = ts.read(clock);
    (void)system.direct_access(1, row_a.vaddr, clock);
    const util::Cycle t1 = ts.read_fast(clock);
    histogram.add(static_cast<double>(t1 - t0));
    clock += 50;
  }
  std::printf("user-space measured latency histogram "
              "(hit cluster vs conflict cluster):\n%s\n",
              histogram.render().c_str());
  return 0;
}

}  // namespace

void register_rowbuffer(Registry& r) {
  ExperimentSpec spec;
  spec.name = "rowbuffer";
  spec.description =
      "Row-buffer timing channel microbenchmark: hit/empty/conflict "
      "latencies and user-space histogram";
  spec.kind = Kind::kFigure;
  spec.run = run_rowbuffer;
  r.add(std::move(spec));
}

}  // namespace impact::lab
