// The metrics half of the obs:: telemetry spine.
//
// A `Registry` owns named counters, gauges, and histogram-backed
// distributions. Instrumented code resolves a name to a handle ONCE (at
// component construction) and the handle is then a raw pointer into
// deque-backed stable storage, so the hot path costs one null check plus
// one increment — no map lookup, no string hashing, no virtual call.
//
// A default-constructed handle is null: instrumentation sites guard on one
// cached handle (`if (ops_) { ... }`) and the whole block is skipped when
// the component was built outside an `obs::Scope`. Handles are invalidated
// by the Registry's destruction, never by growth (deque storage).
//
// Components whose counters live in their own structs (cache::LevelStats,
// sys::TlbStats, dram::BankStats) register *providers* instead: a callback
// sampled at snapshot time, costing literally nothing on the access path.
// A component destroyed before the registry must `flush_provider` so the
// final value persists as a plain counter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace impact::obs {

class Registry;
struct Snapshot;

/// O(1) monotonic counter handle. `add` requires a non-null handle; guard
/// a block of adds with one `if (handle)` on any handle resolved from the
/// same registry (they are all null or all live together).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) { *cell_ += n; }
  [[nodiscard]] std::uint64_t value() const { return *cell_; }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

/// O(1) last-value gauge handle (cycles, rates, sizes).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) { *cell_ = v; }
  void add(double v) { *cell_ += v; }
  [[nodiscard]] double value() const { return *cell_; }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// O(1) distribution handle over a util::Histogram owned by the registry.
class Distribution {
 public:
  Distribution() = default;
  void add(double v) { hist_->add(v); }
  [[nodiscard]] const util::Histogram& histogram() const { return *hist_; }
  explicit operator bool() const { return hist_ != nullptr; }

 private:
  friend class Registry;
  explicit Distribution(util::Histogram* hist) : hist_(hist) {}
  util::Histogram* hist_ = nullptr;
};

/// Identifies a registered snapshot-time provider (for flush-on-detach).
using ProviderId = std::uint64_t;

class Registry {
 public:
  Registry() = default;
  // Handles point into this object; moving would not invalidate them, but
  // copying would silently fork the cells. Forbid both.
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolves (creating on first use) the counter named `name`.
  Counter counter(std::string_view name);
  /// Resolves (creating on first use) the gauge named `name`.
  Gauge gauge(std::string_view name);
  /// Resolves (creating on first use) a distribution with the given bin
  /// shape. Re-resolving an existing name ignores the shape arguments.
  Distribution distribution(std::string_view name, double lo, double hi,
                            std::size_t bins);

  /// Registers a snapshot-time sampler for counter `name`: the callback is
  /// invoked at `snapshot()` and its value *added* to the counter cell's
  /// own contents. Multiple providers may feed one name (summed).
  ProviderId add_provider(std::string name, std::function<std::uint64_t()> fn);
  /// Samples the provider one final time into its counter cell and removes
  /// it. Components must call this (via their destructor) when they can be
  /// destroyed before the registry snapshots.
  void flush_provider(ProviderId id);
  [[nodiscard]] std::size_t provider_count() const { return providers_.size(); }

  /// Current value helpers (tests / reporting; snapshot() is the bulk API).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Captures every metric (providers sampled) into a detached Snapshot.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Provider {
    ProviderId id = 0;
    std::string name;
    std::function<std::uint64_t()> fn;
  };

  // Deques give the cells stable addresses across growth; the maps only
  // index them by name. Lookups happen at handle-resolution time only.
  std::deque<std::uint64_t> counter_cells_;
  std::deque<double> gauge_cells_;
  std::deque<util::Histogram> dist_cells_;
  std::map<std::string, std::uint64_t*, std::less<>> counters_;
  std::map<std::string, double*, std::less<>> gauges_;
  std::map<std::string, util::Histogram*, std::less<>> dists_;
  std::vector<Provider> providers_;
  ProviderId next_provider_ = 1;
};

}  // namespace impact::obs
