// Anchor chaining: selecting the collinear set of seed matches that best
// explains a read's placement (the step between seeding and alignment).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

namespace impact::genomics {

/// One exact seed match: read offset `query_pos` matches reference offset
/// `target_pos` (for `length` bases).
struct Anchor {
  std::uint32_t query_pos = 0;
  std::uint32_t target_pos = 0;
  std::uint32_t length = 15;

  bool operator==(const Anchor&) const = default;
};

struct ChainConfig {
  std::uint32_t max_gap = 500;     ///< Max ref/read gap between anchors.
  std::uint32_t max_skip = 25;     ///< DP lookback (minimap2-style bound).
  double gap_penalty = 0.01;       ///< Per-base gap cost.

  auto operator<=>(const ChainConfig&) const = default;
};

struct Chain {
  std::vector<Anchor> anchors;     ///< In query order.
  double score = 0.0;

  /// Predicted reference start of the read under this chain.
  [[nodiscard]] std::int64_t predicted_start() const {
    if (anchors.empty()) return -1;
    return static_cast<std::int64_t>(anchors.front().target_pos) -
           static_cast<std::int64_t>(anchors.front().query_pos);
  }
};

/// Finds the best-scoring collinear chain among `anchors` via the standard
/// O(n * max_skip) dynamic program over anchors sorted by target position.
[[nodiscard]] Chain chain_anchors(std::vector<Anchor> anchors,
                                  const ChainConfig& config = {});

}  // namespace impact::genomics
