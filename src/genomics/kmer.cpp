#include "genomics/kmer.hpp"

#include "util/assert.hpp"

namespace impact::genomics {

std::uint64_t hash64(std::uint64_t key) {
  // minimap2's invertible hash (Thomas Wang mix).
  key = (~key + (key << 21));
  key = key ^ (key >> 24);
  key = ((key + (key << 3)) + (key << 8));
  key = key ^ (key >> 14);
  key = ((key + (key << 2)) + (key << 4));
  key = key ^ (key >> 28);
  key = (key + (key << 31));
  return key;
}

Kmer pack_kmer(const std::vector<Base>& seq, std::size_t pos,
               std::uint32_t k) {
  util::check(k >= 1 && k <= 31, "pack_kmer: k must be in [1,31]");
  util::check(pos + k <= seq.size(), "pack_kmer: out of range");
  Kmer kmer = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    kmer = (kmer << 2) | seq[pos + i];
  }
  return kmer;
}

Kmer revcomp_kmer(Kmer kmer, std::uint32_t k) {
  Kmer rc = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    rc = (rc << 2) | (3ull - (kmer & 3ull));  // Complement (A<->T, C<->G).
    kmer >>= 2;
  }
  return rc;
}

Kmer canonical_kmer(Kmer kmer, std::uint32_t k) {
  const Kmer rc = revcomp_kmer(kmer, k);
  return kmer < rc ? kmer : rc;
}

std::vector<Minimizer> extract_minimizers(const std::vector<Base>& seq,
                                          const MinimizerConfig& config) {
  const std::uint32_t k = config.k;
  const std::uint32_t w = config.w;
  util::check(k >= 1 && k <= 31, "extract_minimizers: k must be in [1,31]");
  util::check(w >= 1, "extract_minimizers: w must be >= 1");
  std::vector<Minimizer> out;
  if (seq.size() < k) return out;
  const std::size_t n_kmers = seq.size() - k + 1;

  // Forward and reverse-complement k-mers roll together, O(1) per base:
  // the forward strand shifts the new base in at the low end, the reverse
  // strand shifts its complement in at the high end.
  const Kmer mask = (1ull << (2 * k)) - 1;
  const unsigned rc_shift = 2 * (k - 1);
  Kmer fwd = 0;
  Kmer rc = 0;
  const auto roll = [&](Base b) {
    fwd = ((fwd << 2) | b) & mask;
    rc = (rc >> 2) | ((3ull - b) << rc_shift);
  };
  for (std::size_t i = 0; i + 1 < k; ++i) roll(seq[i]);

  // Sliding window minimum (minimap2's scheme): a ring of the last w
  // hashes plus the current minimum. A new hash <= the minimum takes over
  // (ties go to the rightmost k-mer); the ring is rescanned, oldest to
  // newest, only when the minimum itself slides out of the window.
  std::vector<std::uint64_t> ring(w);
  std::uint32_t slot = 0;  // Ring slot of k-mer i.
  std::uint64_t min_hash = ~0ull;
  std::size_t min_pos = 0;
  for (std::size_t i = 0; i < n_kmers; ++i) {
    roll(seq[i + k - 1]);
    const std::uint64_t h = hash64(fwd < rc ? fwd : rc);
    ring[slot] = h;
    if (h <= min_hash) {
      min_hash = h;
      min_pos = i;
    } else if (min_pos + w <= i) {
      // k-mer i - w + 1 sits in the slot after i's; scan forward from it.
      min_hash = ~0ull;
      std::size_t pos = i + 1 - w;
      const auto scan = [&](std::uint32_t from, std::uint32_t to) {
        for (std::uint32_t j = from; j < to; ++j, ++pos) {
          const bool take = ring[j] <= min_hash;  // Branch-free select.
          min_hash = take ? ring[j] : min_hash;
          min_pos = take ? pos : min_pos;
        }
      };
      scan(slot + 1, w);
      scan(0, slot + 1);
    }
    if (++slot == w) slot = 0;
    if (i + 1 >= w) {
      const Minimizer m{min_hash, static_cast<std::uint32_t>(min_pos)};
      if (out.empty() || !(out.back() == m)) out.push_back(m);
    }
  }
  return out;
}

}  // namespace impact::genomics
