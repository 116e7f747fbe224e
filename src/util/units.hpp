// Basic quantity types shared by the whole simulator.
//
// The simulator counts time exclusively in CPU cycles of the simulated host
// (Table 2: 2.6 GHz). DRAM timing parameters are specified in nanoseconds and
// converted once, at configuration time, via `Frequency::cycles_for_ns`.
#pragma once

#include <compare>
#include <cstdint>

namespace impact::util {

/// A point or duration on a simulated core's clock, in CPU cycles.
using Cycle = std::uint64_t;

/// Signed cycle arithmetic for differences that may be negative mid-formula.
using CycleDelta = std::int64_t;

/// Clock frequency of the simulated host CPU.
class Frequency {
 public:
  constexpr explicit Frequency(double ghz) : ghz_(ghz) {}

  [[nodiscard]] constexpr double ghz() const { return ghz_; }
  [[nodiscard]] constexpr double hz() const { return ghz_ * 1e9; }

  /// Number of CPU cycles covering `ns` nanoseconds, rounded up (a DRAM
  /// command is not finished until the full analog interval has elapsed).
  [[nodiscard]] constexpr Cycle cycles_for_ns(double ns) const {
    const double cycles = ns * ghz_;
    const auto whole = static_cast<Cycle>(cycles);
    return (static_cast<double>(whole) < cycles) ? whole + 1 : whole;
  }

  /// Converts a cycle count to seconds.
  [[nodiscard]] constexpr double seconds(Cycle cycles) const {
    return static_cast<double>(cycles) / hz();
  }

  /// Throughput in megabits per second for `bits` delivered in `cycles`.
  [[nodiscard]] constexpr double mbps(double bits, Cycle cycles) const {
    if (cycles == 0) return 0.0;
    return bits / seconds(cycles) / 1e6;
  }

  constexpr auto operator<=>(const Frequency&) const = default;

 private:
  double ghz_;
};

/// The host frequency used throughout the paper's evaluation (Table 2).
inline constexpr Frequency kDefaultFrequency{2.6};

/// Bytes helpers for cache/DRAM geometry.
constexpr std::uint64_t operator""_KiB(unsigned long long v) {
  return v * 1024ull;
}
constexpr std::uint64_t operator""_MiB(unsigned long long v) {
  return v * 1024ull * 1024ull;
}
constexpr std::uint64_t operator""_GiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull;
}

}  // namespace impact::util
