// Host-time spans for the traced run.
//
// The benchmark wraps each public call it makes into the simulator in a
// span (name, start, end, parent span, workload id). Spans stay in memory
// and are written out once, as a Chrome trace, when the run ends. Nothing
// here reaches simulated state.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the top.
  };

  /// RAII span: open on construction, closed on destruction. A null
  /// recorder makes it a no-op, so untraced code paths share the call site.
  class Guard {
   public:
    Guard(SpanRecorder* recorder, std::string name);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  /// Total self time (duration minus the time covered by child spans) per
  /// span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes the spans as Chrome trace "complete" events.
  bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  std::string workload_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
