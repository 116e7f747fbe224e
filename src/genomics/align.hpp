// Banded global alignment (edit distance) for the read-mapping alignment
// step.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "genomics/genome.hpp"

namespace impact::genomics {

struct AlignConfig {
  std::uint32_t band = 16;  ///< Half-width of the DP band.

  auto operator<=>(const AlignConfig&) const = default;
};

struct AlignResult {
  std::uint32_t edit_distance = 0;
  bool within_band = true;  ///< False if the alignment left the band.
};

/// Banded edit distance between `query` and `target`. Positions farther
/// than `band` off the main diagonal are treated as unreachable; if the
/// optimum path would need them, `within_band` is false and the returned
/// distance is an upper bound.
[[nodiscard]] AlignResult banded_edit_distance(
    const std::vector<Base>& query, const std::vector<Base>& target,
    const AlignConfig& config = {});

/// Full alignment with traceback.
struct Alignment {
  std::uint32_t edit_distance = 0;
  bool within_band = true;
  /// CIGAR string, SAM-style run-length ops: M (match/mismatch),
  /// I (insertion in target relative to query), D (deletion from target).
  std::string cigar;
};

/// Banded global alignment of `query` against `target` with CIGAR
/// traceback (same band semantics as banded_edit_distance).
[[nodiscard]] Alignment banded_align(const std::vector<Base>& query,
                                     const std::vector<Base>& target,
                                     const AlignConfig& config = {});

/// Validates a CIGAR against sequence lengths: M+D runs must sum to the
/// query length and M+I runs to the target length.
[[nodiscard]] bool cigar_consistent(const std::string& cigar,
                                    std::size_t query_len,
                                    std::size_t target_len);

}  // namespace impact::genomics
