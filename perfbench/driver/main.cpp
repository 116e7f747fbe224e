// perfbench_driver: runs one benchmark workload for a fixed host-time budget
// and prints its metrics.
//
//   perfbench_driver --workload NAME --seconds S [--seed N] [--trace 0|1]
//                    [--reference FILE] [--write-reference FILE]
//                    [--spans FILE] [--tiny]
//
// Untraced (--trace 0), the last stdout line is the end-to-end result:
// {"correct", "attempted", "failed", "metrics": {wall_s, sim_ops_per_s,
// setup_s, peak_rss_mb, paper_err_pct}}, the times scaled by the HostSpeed
// reference kernel timed in the same run. Traced (--trace 1), one warm-up
// pass is followed by alternating untraced and traced passes (obs::Scope
// open, host spans recorded), and the metrics are the per-layer ones plus
// trace.overhead_pct. A human-readable summary goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  Options options;
  double seconds = 0.0;
  bool trace = false;
  std::string reference;
  std::string write_reference;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seconds S "
               "[--seed N] [--trace 0|1] [--reference FILE] "
               "[--write-reference FILE] [--spans FILE] [--tiny]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      a.options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) {
          usage("--seconds out of range");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--reference") {
        a.reference = value;
      } else if (flag == "--write-reference") {
        a.write_reference = value;
      } else if (flag == "--spans") {
        a.spans = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds == 0.0) usage("--seconds is required");
  return a;
}

struct PassLog {
  std::vector<double> setup_s;
  std::vector<double> simulate_s;

  [[nodiscard]] double median_pass_s() const {
    std::vector<double> total;
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      total.push_back(setup_s[i] + simulate_s[i]);
    }
    return median(total);
  }
};

/// Runs `pass` (traced when `spans` is non-null) into `log`.
void run_pass(Workload& w, const Pass& pass, SpanRecorder* spans,
              PassLog& log) {
  SpanRecorder::Guard span(spans, "pass");
  Clock::time_point t0 = Clock::now();
  {
    SpanRecorder::Guard phase(spans, "setup");
    w.setup(pass, spans);
  }
  log.setup_s.push_back(seconds_since(t0));
  t0 = Clock::now();
  {
    SpanRecorder::Guard phase(spans, "simulate");
    w.simulate(pass, spans);
  }
  log.simulate_s.push_back(seconds_since(t0));
}

/// An untraced run makes at least this many passes, however short its
/// budget, so that every call has a sample to spare for a disturbed pass.
constexpr std::size_t kMinPasses = 3;

/// True while another pass of the median length still fits the budget.
bool another_pass_fits(Clock::time_point start, double budget_s,
                       const PassLog& log) {
  return seconds_since(start) + log.median_pass_s() <= budget_s;
}

/// The first few samples, for the stderr summary.
std::string list(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < v.size() && i < 8; ++i) {
    std::snprintf(buf, sizeof buf, "%.4g ", v[i]);
    out += buf;
  }
  return out + "(" + std::to_string(v.size()) + " passes)";
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Every per-layer metric, in print order, with its unit. Layers a workload
/// leaves idle print 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_table() {
  static const std::vector<std::pair<std::string, std::string>> t = {
      {"graph.rmat_s", "s"},
      {"graph.trace_s", "s"},
      {"graph.replay_s.open", "s"},
      {"graph.replay_s.closed", "s"},
      {"graph.replay_s.ctd", "s"},
      {"graph.replay_s.adaptive", "s"},
      {"graph.replay_ns_per_access", "ns"},
      {"tlb.accesses", "count"},
      {"tlb.l1_hit_rate", "ratio"},
      {"tlb.walks", "count"},
      {"cache.accesses", "count"},
      {"cache.l1.hit_rate", "ratio"},
      {"cache.l2.hit_rate", "ratio"},
      {"cache.l3.hit_rate", "ratio"},
      {"cache.l3.evictions", "count"},
      {"cache.prefetch_fills", "count"},
      {"dram.commands", "count"},
      {"dram.row_hit_rate", "ratio"},
      {"dram.conflicts", "count"},
      {"dram.activations", "count"},
      {"dram.rowclones", "count"},
      {"pim.pei.ops", "count"},
      {"pim.pei.memory_side_ratio", "ratio"},
      {"pim.rowclone.ops", "count"},
      {"pim.rowclone.legs_per_op", "legs/op"},
      {"channel.setup_s.pnm", "s"},
      {"channel.setup_s.pum", "s"},
      {"channel.transmit_us.pnm.p50", "us"},
      {"channel.transmit_us.pnm.tail", "us"},
      {"channel.transmit_us.pnm.tail_pct", "%"},
      {"channel.transmit_us.pnm.samples", "count"},
      {"channel.transmit_us.pum.p50", "us"},
      {"channel.transmit_us.pum.tail", "us"},
      {"channel.transmit_us.pum.tail_pct", "%"},
      {"channel.transmit_us.pum.samples", "count"},
      {"channel.sim_mbps.pnm", "Mb/s"},
      {"channel.sim_mbps.pum", "Mb/s"},
      {"channel.bits_correct_ratio", "ratio"},
      {"protocol.send_us.p50", "us"},
      {"protocol.retx_ratio", "ratio"},
      {"protocol.recalibrations", "count"},
      {"protocol.failed_frames", "count"},
      {"fault.fired", "count"},
      {"genomics.synthesize_s", "s"},
      {"genomics.seed_table_s", "s"},
      {"spy.setup_s", "s"},
      {"spy.run_s.1024", "s"},
      {"spy.run_s.2048", "s"},
      {"spy.run_s.4096", "s"},
      {"spy.run_s.8192", "s"},
      {"spy.error_rate.1024", "ratio"},
      {"spy.error_rate.2048", "ratio"},
      {"spy.error_rate.4096", "ratio"},
      {"spy.error_rate.8192", "ratio"},
      {"spy.capture_rate.1024", "ratio"},
      {"spy.capture_rate.2048", "ratio"},
      {"spy.capture_rate.4096", "ratio"},
      {"spy.capture_rate.8192", "ratio"},
      {"store.warm_s", "s"},
      {"store.hit_rate", "ratio"},
      {"store.misses", "count"},
      {"exec.cpu_s", "s"},
      {"exec.utilization", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return t;
}

/// The layer counters every workload shares, from its traced obs snapshot.
void counter_metrics(const obs::Snapshot& s, MetricSet& out) {
  const auto c = [&](const char* name) {
    return static_cast<double>(s.counter(name));
  };
  const auto hit_rate = [&](const std::string& level) {
    const double hits = c((level + ".hits").c_str());
    return ratio(hits, hits + c((level + ".misses").c_str()));
  };
  out.set("tlb.accesses", c("tlb.accesses"), "count");
  out.set("tlb.l1_hit_rate", ratio(c("tlb.l1_hits"), c("tlb.accesses")),
          "ratio");
  out.set("tlb.walks", c("tlb.walks"), "count");
  out.set("cache.accesses", c("cache.l1.hits") + c("cache.l1.misses"),
          "count");
  out.set("cache.l1.hit_rate", hit_rate("cache.l1"), "ratio");
  out.set("cache.l2.hit_rate", hit_rate("cache.l2"), "ratio");
  out.set("cache.l3.hit_rate", hit_rate("cache.l3"), "ratio");
  out.set("cache.l3.evictions", c("cache.l3.evictions"), "count");
  out.set("cache.prefetch_fills", c("cache.prefetch_fills"), "count");
  out.set("dram.commands", c("dram.commands"), "count");
  out.set("dram.row_hit_rate",
          ratio(c("dram.hits"),
                c("dram.hits") + c("dram.empties") + c("dram.conflicts")),
          "ratio");
  out.set("dram.conflicts", c("dram.conflicts"), "count");
  out.set("dram.activations", c("dram.activations"), "count");
  out.set("dram.rowclones", c("dram.rowclones"), "count");
  out.set("pim.pei.ops", c("pim.pei.ops"), "count");
  out.set("pim.pei.memory_side_ratio",
          ratio(c("pim.pei.memory_side"), c("pim.pei.ops")), "ratio");
  out.set("pim.rowclone.ops", c("pim.rowclone.ops"), "count");
  out.set("pim.rowclone.legs_per_op",
          ratio(c("pim.rowclone.legs"), c("pim.rowclone.ops")), "legs/op");
}

int run(const Args& args) {
  Verifier verifier;
  if (!args.reference.empty() && !verifier.load_reference(args.reference)) {
    std::cerr << "perfbench_driver: cannot read " << args.reference << "\n";
    return 2;
  }
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.options, verifier);
  if (!w) usage("unknown workload " + args.workload);

  MetricSet metrics;
  std::size_t pass = 0;
  const Clock::time_point start = Clock::now();
  if (!args.trace) {
    PassLog log;
    HostSpeed host;
    w->attach(&host);
    while (pass < kMinPasses ||
           another_pass_fits(start, args.seconds, log)) {
      run_pass(*w, {.number = pass, .input = pass}, nullptr, log);
      ++pass;
    }
    const double slowdown = host.slowdown();
    std::cerr << "setup_s per pass: " << list(log.setup_s)
              << "\nsimulate_s per pass: " << list(log.simulate_s) << "\n";
    std::fprintf(stderr,
                 "measured: wall %.6g s, setup %.6g s; host slowdown %.4g "
                 "(%zu reference samples)\n",
                 w->wall_s(), w->setup_s(), slowdown, host.samples());
    // Host seconds at the baseline host's unloaded speed: see HostSpeed.
    const double wall = w->wall_s() / slowdown;
    metrics.set("wall_s", wall, "s");
    metrics.set("sim_ops_per_s",
                w->ops_per_pass() / wall, "1/s");
    metrics.set("setup_s", w->setup_s() / slowdown, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("paper_err_pct", w->paper_err_pct(), "%");
  } else {
    // The warm-up pass pays the process's first-touch costs, which would
    // otherwise land on whichever kind of pass ran first. Then come pairs
    // of an untraced and a traced pass on the same input: alternating the
    // two kinds exposes both to the same phases of host load.
    PassLog warmup;
    PassLog plain;
    PassLog traced;
    SpanRecorder spans(args.workload);
    run_pass(*w, {.number = pass++, .input = 0}, nullptr, warmup);
    while (pass % 2 == 0 || traced.simulate_s.empty() ||
           another_pass_fits(start, args.seconds, plain)) {
      const bool trace_this = pass % 2 == 0;
      run_pass(*w, {.number = pass, .input = (pass - 1) / 2},
               trace_this ? &spans : nullptr, trace_this ? traced : plain);
      ++pass;
    }
    w->traced_extras(spans);
    std::cerr << "simulate_s per untraced pass: " << list(plain.simulate_s)
              << "\nsimulate_s per traced pass: " << list(traced.simulate_s)
              << "\n";
    MetricSet layer;
    counter_metrics(w->layer_snapshot(), layer);
    w->layer_metrics(layer);
    layer.set("trace.overhead_pct",
              100.0 * (median(traced.simulate_s) /
                           median(plain.simulate_s) -
                       1.0),
              "%");
    for (const auto& [name, unit] : layer_metric_table()) {
      metrics.set(name, layer.has(name) ? layer.value(name) : 0.0, unit);
    }
    if (!args.spans.empty() && !spans.write_chrome_trace(args.spans)) {
      std::cerr << "perfbench_driver: cannot write " << args.spans << "\n";
    }
    std::cerr << "self time by span (s, traced passes):\n";
    for (const auto& [name, s] : spans.self_seconds()) {
      std::fprintf(stderr, "  %-44s %10.4f\n", name.c_str(), s);
    }
  }

  if (!args.write_reference.empty() &&
      !verifier.write_reference(args.write_reference)) {
    std::cerr << "perfbench_driver: cannot write " << args.write_reference
              << "\n";
    return 2;
  }

  const double failed_frac = ratio(static_cast<double>(verifier.failed()),
                                   static_cast<double>(verifier.attempted()));
  std::fprintf(stderr,
               "workload %s, seed %llu, %zu passes in %.2f s%s\n"
               "  headline: %s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.options.seed), pass,
               seconds_since(start), args.trace ? " (traced run)" : "",
               w->headline().c_str());
  std::cerr << metrics.text("  ");
  std::fprintf(stderr, "  %-36s %14.6g %s\n", "failed_frac", failed_frac,
               "ratio");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verifier.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(verifier.attempted()),
              static_cast<unsigned long long>(verifier.failed()),
              metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << args.workload << " threw: "
              << e.what() << "\n";
    return 1;
  }
}
