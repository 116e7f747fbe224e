// User-space timing instrumentation (rdtscp / cpuid emulation).
//
// §5.1: "The receiver has access to cpuid and rdtscp instructions, enabling
// high-precision measurement of memory access latencies." The costs below
// follow published measurements of serialized timestamp reads: the fenced
// read-pair that brackets a memory access adds a fixed overhead to every
// timed operation, which is part of each attack's per-bit budget.
#pragma once

#include <compare>

#include "util/units.hpp"

namespace impact::sys {

struct TimerConfig {
  util::Cycle rdtscp_cost = 24;  ///< rdtscp itself.
  util::Cycle cpuid_cost = 28;   ///< Serializing cpuid before the read.

  auto operator<=>(const TimerConfig&) const = default;
};

/// Emulated timestamp counter bound to an actor's local clock.
class Timestamp {
 public:
  explicit Timestamp(TimerConfig config = {}) : config_(config) {}

  /// Serialized timestamp read (`cpuid; rdtscp`): advances the actor clock
  /// by the instruction cost and returns the cycle value read.
  [[nodiscard]] util::Cycle read(util::Cycle& clock) const {
    clock += config_.cpuid_cost + config_.rdtscp_cost;
    return clock;
  }

  /// Lightweight unserialized read (`rdtscp` only), for the closing
  /// timestamp where the measured operation already ordered execution.
  [[nodiscard]] util::Cycle read_fast(util::Cycle& clock) const {
    clock += config_.rdtscp_cost;
    return clock;
  }

  /// Total overhead a start/stop measurement adds beyond the measured op.
  [[nodiscard]] util::Cycle measurement_overhead() const {
    return config_.cpuid_cost + 2 * config_.rdtscp_cost;
  }

  /// Instruction costs, for batched probe kernels that fold the
  /// read/read_fast bracket into per-op pre/post clock advances.
  [[nodiscard]] const TimerConfig& config() const { return config_; }

 private:
  TimerConfig config_;
};

}  // namespace impact::sys
