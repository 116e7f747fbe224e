// The benchmark's workloads. Each one drives the simulator through the
// public functions of its layers in passes: `setup` builds a pass's inputs,
// systems and calibration, `simulate` runs it and checks every result.
// The driver (main.cpp) repeats passes for the run's duration and reports
// low percentiles of the per-call times; a traced pass (non-null
// SpanRecorder) also opens an obs::Scope and collects the per-layer numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"
#include "obs/scope.hpp"
#include "spans.hpp"

namespace perfbench {

namespace obs = impact::obs;

/// The seed whose inputs are the ones `impact run fig8/fig10/fig11` use.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  /// Self-test scale: small graphs, genomes and message counts. The
  /// results no longer match the paper's configuration.
  bool tiny = false;
};

/// One pass of a run. `number` counts every pass; a workload that varies
/// its inputs from pass to pass chooses them by `input`, so passes with the
/// same `input` compute the same results.
struct Pass {
  std::size_t number = 0;
  std::size_t input = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup(const Pass& pass, SpanRecorder* spans) = 0;
  virtual void simulate(const Pass& pass, SpanRecorder* spans) = 0;

  /// Host seconds of one pass's timed setup and simulate calls.
  [[nodiscard]] double setup_s() const { return setup_calls_.pass_s(); }
  [[nodiscard]] double wall_s() const { return simulate_calls_.pass_s(); }
  /// Samples `host` between the timed calls from now on.
  void attach(HostSpeed* host) {
    setup_calls_.attach(host);
    simulate_calls_.attach(host);
  }
  /// Simulated operations in one pass (replayed accesses, transmitted
  /// channel bits or attacker probe observations).
  [[nodiscard]] virtual double ops_per_pass() const = 0;
  /// Mean relative error, in percent, of the pass-0 headline numbers
  /// against the paper's.
  [[nodiscard]] virtual double paper_err_pct() const = 0;
  /// One line naming the compared numbers and their simulated values.
  [[nodiscard]] virtual std::string headline() const = 0;
  /// Work only the traced run does, after its passes; its timings are
  /// per-layer metrics, never end-to-end ones.
  virtual void traced_extras(SpanRecorder&) {}
  /// The workload's own per-layer metrics, from its traced run.
  virtual void layer_metrics(MetricSet& out) const = 0;

  /// Counters of the first traced pass (empty when none ran).
  [[nodiscard]] const obs::Snapshot& layer_snapshot() const {
    return snapshot_;
  }

 protected:
  /// Every simulator call of a pass's setup and simulate phases, timed.
  CallTimes setup_calls_;
  CallTimes simulate_calls_;

  /// Opens the pass's obs::Scope when tracing. Everything the pass builds
  /// must be destroyed before close_scope().
  void open_scope(const SpanRecorder* spans) {
    if (spans != nullptr) scope_.emplace();
  }
  void close_scope() {
    if (!scope_) return;
    if (snapshot_.empty()) snapshot_ = scope_->snapshot();
    scope_.reset();
  }

 private:
  std::optional<obs::Scope> scope_;
  obs::Snapshot snapshot_;
};

/// Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Options& options,
                                                      Verifier& verifier);

}  // namespace perfbench
