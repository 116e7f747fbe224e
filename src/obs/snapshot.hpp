// Detached, mergeable capture of a Registry's metrics.
//
// Snapshots are plain data: copyable, comparable by content, and safe to
// move across threads (exec::Sweep attaches one per cell). `merge` folds
// cells together (counters add, distributions bin-wise merge, gauges are
// dropped); `diff` isolates an interval between two captures of the same
// registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/histogram.hpp"

namespace impact::obs {

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, util::Histogram> dists;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && dists.empty();
  }

  /// Value of counter `name`, 0 when absent (so report derivation code
  /// reads naturally whether or not the layer was instrumented).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Value of gauge `name`, 0.0 when absent.
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Distribution `name`, nullptr when absent.
  [[nodiscard]] const util::Histogram* dist(std::string_view name) const;

  /// Folds `other` into this snapshot: counters add; same-name
  /// distributions merge bin-wise (throws std::invalid_argument on shape
  /// mismatch); names unique to `other` are copied in. A gauge is one
  /// run's value (a rate, a ratio) and a sum of them means nothing, so
  /// the merged snapshot carries no gauges.
  void merge(const Snapshot& other);

  /// Interval algebra: returns `this - earlier` per counter/gauge
  /// (counters saturate at 0 if `earlier` ran ahead, which only happens
  /// when the snapshots came from different registries). Distributions do
  /// not subtract; the later capture's histograms are kept as-is.
  [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;

  /// Two-column "name value" rendering of counters then gauges, sorted by
  /// name — the shared table body of quickstart and the bench figures.
  [[nodiscard]] std::string table(std::string_view indent = "  ") const;
};

}  // namespace impact::obs
