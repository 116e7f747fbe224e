// k-mer encoding and (w,k)-minimizer extraction (minimap2-style seeding).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "genomics/genome.hpp"

namespace impact::genomics {

/// A k-mer packed 2 bits per base, most recent base in the low bits.
using Kmer = std::uint64_t;

/// Invertible 64-bit mixer used by minimap2 to order k-mers for minimizer
/// selection (avoids poly-A minimizers that a lexicographic order picks).
[[nodiscard]] std::uint64_t hash64(std::uint64_t key);

/// Packs `k` bases starting at `pos`. Requires pos+k <= seq.size(), k <= 31.
[[nodiscard]] Kmer pack_kmer(const std::vector<Base>& seq, std::size_t pos,
                             std::uint32_t k);

/// Reverse complement of a packed k-mer.
[[nodiscard]] Kmer revcomp_kmer(Kmer kmer, std::uint32_t k);

/// Canonical form: min(kmer, revcomp) so both strands seed identically.
[[nodiscard]] Kmer canonical_kmer(Kmer kmer, std::uint32_t k);

/// One selected minimizer: the k-mer's hash and its position.
struct Minimizer {
  std::uint64_t hash = 0;
  std::uint32_t position = 0;

  bool operator==(const Minimizer&) const = default;
};

struct MinimizerConfig {
  std::uint32_t k = 15;  ///< Seed length.
  std::uint32_t w = 10;  ///< Window: one minimizer per w consecutive k-mers.

  auto operator<=>(const MinimizerConfig&) const = default;
};

/// Extracts the (w,k)-minimizers of `seq`: for every window of w k-mers the
/// one with the smallest hash64(canonical) value is selected, ties going to
/// the rightmost k-mer; a window that selects its predecessor's pick adds
/// nothing. Requires 1 <= k <= 31 and w >= 1.
[[nodiscard]] std::vector<Minimizer> extract_minimizers(
    const std::vector<Base>& seq, const MinimizerConfig& config);

}  // namespace impact::genomics
