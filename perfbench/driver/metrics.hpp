// Host-side measurement helpers for the benchmark driver: named metrics
// with units, sample statistics, resource usage, and result verification.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ordered name -> (value, unit) map; the order is the printing order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double value(std::string_view name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  [[nodiscard]] std::string json() const;
  /// One "name value unit" line per metric.
  [[nodiscard]] std::string text(std::string_view indent) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

[[nodiscard]] double median(std::vector<double> samples);

/// How fast the host core runs right now, from a fixed reference kernel:
/// perfbench's own integer code, never the simulator's, timed between
/// simulator calls. Other tenants of a shared host slow every core in
/// phases that can outlast a run; the simulator's calls and this kernel
/// slow together, so the ratio of their times stays put where either
/// alone moves by half.
class HostSpeed {
 public:
  HostSpeed();
  /// Times one run of the kernel, unless one ran less than kInterval ago.
  void maybe_sample();
  /// The kernel's time (the same low percentile CallTimes uses) ÷
  /// kCalmSeconds: about 1 on an unloaded core of the baseline host, above
  /// 1 under load, below 1 on a faster host. 1 before any sample.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

  /// The kernel's time on an unloaded core of the baseline host (see
  /// perfbench/README.md); a constant, so it only sets the scale.
  static constexpr double kCalmSeconds = 1.0e-3;
  static constexpr std::chrono::milliseconds kInterval{50};

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;
  Clock::time_point last_;
  std::uint64_t sink_ = 0;
};

/// Host seconds of the calls that passes repeat, one series per cell: a
/// call site and the input it ran on. Every pass with the same input makes
/// the same calls, so the samples of a cell all time the same work.
class CallTimes {
 public:
  void add(std::size_t input, std::size_t call, double seconds);
  /// From now on, each add() also lets `host` take a sample, so the
  /// reference kernel runs between timed calls and through every phase of
  /// the run.
  void attach(HostSpeed* host) { host_ = host; }
  /// One pass's time: the sum of the cells' kCellPercentile-th percentiles,
  /// averaged over the inputs seen. Host load only ever slows a call, and
  /// on a shared host it comes in phases of seconds that can cover most of
  /// a run; a low percentile per cell still finds each call's unloaded time
  /// where a median needs most samples to be clean.
  [[nodiscard]] double pass_s() const;

  /// The per-cell percentile pass_s() sums (nearest rank: the fastest
  /// sample of a cell with fewer than ten).
  static constexpr double kCellPercentile = 10.0;

 private:
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> cells_;
  HostSpeed* host_ = nullptr;
};

/// Nearest-rank percentile, `p` in [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that still
/// has at least ten samples above it (p50 when there are too few samples).
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& samples);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU seconds consumed by all threads of this process so far.
[[nodiscard]] double process_cpu_s();

/// FNV-1a over the fields of a simulated result.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Counts attempted and failed operations. A result is identified by a
/// stable id; its digest is checked against the pinned reference (when one
/// is loaded) and against every earlier result with the same id (the
/// simulator is deterministic, so a repeat must match bit for bit).
class Verifier {
 public:
  /// Loads `id hexdigest` lines. Returns false if the file cannot be read.
  bool load_reference(const std::string& path);
  /// Writes the first digest seen for every id, sorted by id.
  bool write_reference(const std::string& path) const;

  /// Records one result worth `ops` operations. `ok` carries the result's
  /// own invariant checks; any failure counts all its operations as failed.
  void record(const std::string& id, std::uint64_t digest, std::uint64_t ops,
              bool ok);
  /// Marks `ops` already-recorded operations as failed: a check across
  /// several results (an ordering between them) did not hold.
  void fail(std::uint64_t ops, const std::string& reason);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::uint64_t> reference_;
  bool has_reference_ = false;
  std::map<std::string, std::uint64_t> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t reported_ = 0;
};

}  // namespace perfbench
