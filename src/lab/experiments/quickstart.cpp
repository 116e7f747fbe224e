// Quickstart: establish both IMPACT covert channels on the Table 2 system
// and transmit a message across each.
//
//   $ impact run quickstart                   # transmit + per-attack obs
//   $ impact run quickstart --trace run.json  # also export a Chrome trace
//
// Demonstrates the core public API: configure a simulated PiM-enabled
// system, construct an attack under an obs::Scope, transmit, and inspect
// the run — metrics from the scope's Snapshot, the timeline as Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev)
// with spans from the dram, pim, and channel layers.
#include <cstdio>
#include <string>

#include "attacks/impact_pnm.hpp"
#include "attacks/impact_pum.hpp"
#include "lab/context.hpp"
#include "lab/experiments.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "sys/system.hpp"
#include "util/bitvec.hpp"

namespace impact::lab {
namespace {

template <typename Attack>
void run_attack(const sys::SystemConfig& config,
                const util::BitVec& message, obs::TraceSession* trace) {
  // The scope collects everything constructed inside it: the system's DRAM
  // controller taps command traffic, the PiM units their op counts, the
  // attack its per-transmit accounting.
  obs::Scope scope(trace);
  sys::MemorySystem system(config);
  Attack attack(system);
  auto result = attack.transmit(message);
  std::printf("[%s] sent    %s\n", attack.name().c_str(),
              result.sent.to_string().c_str());
  std::printf("[%s] decoded %s\n", attack.name().c_str(),
              result.decoded.to_string().c_str());
  std::printf("[%s] threshold=%.0f cyc  errors=%zu/%zu  "
              "throughput=%.2f Mb/s\n",
              attack.name().c_str(), attack.threshold(),
              result.report.bit_errors(), result.report.bits_total,
              result.report.throughput_mbps(config.frequency()));
  std::printf("[%s] obs snapshot:\n%s", attack.name().c_str(),
              scope.snapshot().table("  ").c_str());
  std::printf("\n");
}

int run_quickstart(Context& ctx) {
  const std::string trace_path = ctx.str("trace");

  sys::SystemConfig config;  // Table 2 defaults.
  std::printf("=== Simulated system ===\n%s\n",
              config.describe().c_str());

  const std::string secret = "1011001110001011";
  const auto message = util::BitVec::from_string(secret);

  obs::TraceSession trace;
  obs::TraceSession* tracer = trace_path.empty() ? nullptr : &trace;
  run_attack<attacks::ImpactPnm>(config, message, tracer);
  run_attack<attacks::ImpactPum>(config, message, tracer);

  if (tracer != nullptr) {
    if (trace.export_chrome_json(trace_path)) {
      std::printf("trace: %zu events -> %s\n", trace.size(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

void register_quickstart(Registry& r) {
  ExperimentSpec spec;
  spec.name = "quickstart";
  spec.description =
      "Both IMPACT covert channels on the Table 2 system: transmit, obs "
      "snapshot, optional Chrome trace";
  spec.kind = Kind::kExample;
  spec.params = {{"trace", "export a Chrome trace_event JSON to this path",
                  ""}};
  spec.run = run_quickstart;
  r.add(std::move(spec));
}

}  // namespace impact::lab
