// Fig. 8: covert-channel throughput of all seven comparison attacks across
// LLC sizes (2 - 64 MB).
//
// Headline numbers being reproduced: IMPACT-PnM 12.87 Mb/s and IMPACT-PuM
// 14.16 Mb/s flat across sizes (up to 4.91x / 5.41x over DRAMA-clflush);
// DMA ~5.27 Mb/s flat; PnM-OffChip 12.64 -> 10.64 Mb/s as the LLC grows;
// DRAMA and Streamline falling with LLC size.
#include <cstdio>
#include <vector>

#include <memory>

#include "attacks/registry.hpp"
#include "cache/latency_model.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "model/cache_attack_model.hpp"
#include "sys/system.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace impact::lab {
namespace {

int run_fig8(Context&) {
  std::printf("=== bench_fig8: attack throughput across LLC sizes ===\n\n");

  const std::vector<std::uint64_t> sizes_mb = {2, 4, 8, 16, 32, 64};
  std::vector<std::string> headers = {"attack"};
  for (auto mb : sizes_mb) headers.push_back(std::to_string(mb) + " MB");
  util::Table table(headers);
  std::unique_ptr<util::CsvWriter> csv;
  if (const auto dir = util::CsvWriter::results_dir_from_env()) {
    csv = std::make_unique<util::CsvWriter>(
        *dir, "fig8",
        std::vector<std::string>{"attack", "llc_mb", "throughput_mbps",
                                 "error_rate"});
  }

  double pnm_best = 0.0;
  double pum_best = 0.0;
  double clflush_worst = 1e9;

  for (const auto kind : attacks::kFig8Attacks) {
    std::vector<std::string> row = {attacks::to_string(kind)};
    for (const auto mb : sizes_mb) {
      sys::SystemConfig cfg;
      cfg.llc_bytes = mb << 20;
      cfg.mapping = attacks::recommended_mapping(kind);
      sys::MemorySystem system(cfg);
      auto attack = attacks::make_attack(kind, system);
      const auto report = attack->measure(64, 12, 21);
      const double mbps = report.throughput_mbps(cfg.frequency());
      row.push_back(util::Table::num(mbps));
      if (csv) {
        csv->add_row({attacks::to_string(kind), std::to_string(mb),
                      util::Table::num(mbps, 4),
                      util::Table::num(report.error_rate(), 5)});
      }
      if (kind == attacks::AttackKind::kImpactPnm) {
        pnm_best = std::max(pnm_best, mbps);
      }
      if (kind == attacks::AttackKind::kImpactPum) {
        pum_best = std::max(pum_best, mbps);
      }
      if (kind == attacks::AttackKind::kDramaClflush) {
        clflush_worst = std::min(clflush_worst, mbps);
      }
    }
    table.add_row(row);
  }

  // Streamline: analytical upper bound, per the paper's own methodology.
  {
    const cache::LlcLatencyModel llc_model;
    std::vector<std::string> row = {"Streamline (model)"};
    for (const auto mb : sizes_mb) {
      model::ExtractedParams p;
      p.llc_latency = llc_model.latency(mb << 20, 16);
      row.push_back(util::Table::num(
          model::streamline_mbps(p, util::kDefaultFrequency)));
    }
    table.add_row(row);
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("IMPACT-PnM peak: %.2f Mb/s (paper 12.87)\n", pnm_best);
  std::printf("IMPACT-PuM peak: %.2f Mb/s (paper 14.16)\n", pum_best);
  std::printf("IMPACT-PnM / DRAMA-clflush (worst case): %.2fx "
              "(paper: up to 4.91x)\n",
              pnm_best / clflush_worst);
  std::printf("IMPACT-PuM / DRAMA-clflush (worst case): %.2fx "
              "(paper: up to 5.41x)\n",
              pum_best / clflush_worst);
  return 0;
}

}  // namespace

void register_fig8(Registry& r) {
  ExperimentSpec spec;
  spec.name = "fig8";
  spec.description =
      "Throughput of all seven comparison attacks across LLC sizes "
      "(2-64 MB), plus the Streamline model bound";
  spec.kind = Kind::kFigure;
  spec.run = run_fig8;
  r.add(std::move(spec));
}

}  // namespace impact::lab
