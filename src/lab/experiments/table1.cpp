// Table 1: efficiency and effectiveness of attack primitives.
//
// The paper's qualitative matrix, backed here by measured quantities from
// the simulated system: the per-use latency of each primitive on the path
// to a DRAM row activation, the number of memory requests it issues, and
// the residual timing margin (conflict minus no-conflict latency as seen
// through the primitive).
//
// One cell per primitive, run through the store::CellRunner: each cell
// builds its own MemorySystem and renders its finished table row, so the
// rows replay from the ResultCache when warm — output identical to the
// old serial loop either way.
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

/// Measures (cost, margin) of reaching a DRAM activation through one
/// primitive. `access(v, clock)` must perform ONE primitive use that ends
/// in a memory request for `v` (including any displacement the primitive
/// needs so the request actually reaches DRAM).
template <typename Access>
std::pair<double, double> measure(Access access, sys::VAddr target,
                                  sys::VAddr disturber) {
  util::Cycle clock = 0;
  double hit_total = 0;
  double conflict_total = 0;
  constexpr int kIters = 64;
  access(target, clock);  // Open the target row once.
  for (int i = 0; i < kIters; ++i) {
    // No-interference case: target row still open.
    const util::Cycle c0 = clock;
    access(target, clock);
    hit_total += static_cast<double>(clock - c0);
    // Interference, then the conflicting re-access.
    access(disturber, clock);
    const util::Cycle c1 = clock;
    access(target, clock);
    conflict_total += static_cast<double>(clock - c1);
  }
  return {hit_total / kIters, (conflict_total - hit_total) / kIters};
}

/// Two rows in the same bank: `target` is probed, `disturber` causes the
/// row conflict.
std::pair<sys::VAddr, sys::VAddr> make_rows(sys::MemorySystem& system) {
  const auto a = system.vmem().map_row(1, 2, 10);
  const auto b = system.vmem().map_row(1, 2, 11);
  system.warm_span(1, a);
  system.warm_span(1, b);
  return {a.vaddr, b.vaddr};
}

/// Renders one finished table row from a primitive's verdicts + measures.
std::vector<std::string> render_row(const char* name, const char* no_lookup,
                                    const char* few_accesses,
                                    const char* detectability,
                                    const char* isa_guarantee, double cost,
                                    double margin) {
  return {name,          no_lookup,
          few_accesses,  detectability,
          isa_guarantee, util::Table::num(cost, 0),
          util::Table::num(margin, 0)};
}

constexpr const char* kPrimitives[] = {"clflush", "eviction", "dma",
                                       "nontemporal", "pim"};

int run_table1(Context& ctx) {
  sys::SystemConfig config;
  std::printf("=== bench_table1: attack primitive comparison ===\n%s\n",
              config.describe().c_str());

  constexpr std::size_t kCells = std::size(kPrimitives);

  store::CellRunner& runner = ctx.runner();
  const auto result = runner.rows(
      "table1.primitives", kCells,
      [&](std::size_t i) {
        store::Canon c;
        c.field("cell", "table1.primitive");
        c.field("primitive", kPrimitives[i]);
        c.object("system", store::canon_of(config));
        return c.fingerprint();
      },
      [&](std::size_t i) -> std::vector<std::string> {
        switch (i) {
          case 0: {  // clflush + reload.
            sys::MemorySystem system(config);
            auto [t, d] = make_rows(system);
            auto [cost, margin] = measure(
                [&](sys::VAddr v, util::Cycle& c) {
                  (void)system.clflush(1, v, c);
                  c += 20;  // mfence.
                  (void)system.load(1, v, c);
                },
                t, d);
            return render_row("Specialized instructions (clflush)", "no",
                              "yes", "yes", "yes", cost, margin);
          }
          case 1: {  // Eviction sets.
            sys::SystemConfig evict_cfg = config;
            evict_cfg.mapping = dram::MappingScheme::kXorBankHash;
            sys::MemorySystem system(evict_cfg);
            auto [t, d] = make_rows(system);
            auto [cost, margin] = measure(
                [&](sys::VAddr v, util::Cycle& c) {
                  (void)system.evict(1, v, c);
                  (void)system.load(1, v, c);
                },
                t, d);
            return render_row("Eviction sets", "no", "no", "yes", "no", cost,
                              margin);
          }
          case 2: {  // DMA engine.
            sys::MemorySystem system(config);
            auto [t, d] = make_rows(system);
            auto [cost, margin] = measure(
                [&](sys::VAddr v, util::Cycle& c) {
                  (void)system.dma_access(1, v, c);
                },
                t, d);
            return render_row("DMA / R-DMA", "yes", "yes", "no", "n/a", cost,
                              margin);
          }
          case 3: {  // Non-temporal hints.
            sys::MemorySystem system(config);
            auto [t, d] = make_rows(system);
            auto [cost, margin] = measure(
                [&](sys::VAddr v, util::Cycle& c) {
                  c += system.hierarchy(1).store_nontemporal(
                      system.vmem().translate(1, v), c);
                },
                t, d);
            return render_row("Non-temporal memory hints", "no", "yes",
                              "yes", "no", cost, margin);
          }
          default: {  // PiM operations (PEI).
            sys::MemorySystem system(config);
            auto [t, d] = make_rows(system);
            pim::PeiDispatcher pei(pim::PeiConfig{}, system, 1);
            auto [cost, margin] = measure(
                [&](sys::VAddr v, util::Cycle& c) {
                  const auto col = pei.next_bypass_column(8192, 64);
                  (void)pei.execute(v + col, c);
                },
                t, d);
            return render_row("PiM operations", "yes", "yes", "yes", "yes",
                              cost, margin);
          }
        }
      });
  if (!result.ok()) {
    std::printf("sweep failed: %s\n", result.report.summary().c_str());
    return 1;
  }

  util::Table table({"primitive", "no cache lookup", "no excessive accesses",
                     "detectable margin", "ISA guarantee",
                     "cycles/activation", "margin (cyc)"});
  for (const auto& row : result.rows) table.add_row(row);
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper's Table 1 verdicts are reproduced qualitatively; the\n"
              "two measured columns ground them: PiM reaches a row\n"
              "activation cheapest while preserving the full tRP margin.\n");
  return 0;
}

}  // namespace

void register_table1(Registry& r) {
  ExperimentSpec spec;
  spec.name = "table1";
  spec.description =
      "Attack-primitive comparison: measured cycles/activation and timing "
      "margin per primitive";
  spec.kind = Kind::kTable;
  spec.cell_count = [](const Context&) { return std::size(kPrimitives); };
  spec.run = run_table1;
  r.add(std::move(spec));
}

}  // namespace impact::lab
