// Synthetic genomes and read sampling.
//
// Substitution note (DESIGN.md §4): the paper uses the human reference
// genome and synthetic sample genomes. The side channel leaks *which
// seed-table bucket a lookup touches*, so any reference with realistic
// repeat structure exercises the identical access pattern. We synthesize a
// reference with tandem/interspersed repeats (so that some minimizers are
// frequent, as in real genomes) and sample reads from it with a
// configurable sequencing-error model.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace impact::genomics {

/// Bases are encoded 2-bit: A=0, C=1, G=2, T=3.
using Base = std::uint8_t;

[[nodiscard]] char base_to_char(Base b);
[[nodiscard]] Base char_to_base(char c);

class Genome {
 public:
  Genome() = default;
  explicit Genome(std::vector<Base> bases) : bases_(std::move(bases)) {}

  /// Parses an ACGT string (test convenience).
  static Genome from_string(const std::string& s);

  /// Synthesizes a reference of `length` bases: random background plus
  /// interspersed repeats (repeat_fraction of the sequence consists of
  /// copies of a small repeat library, mimicking genomic repeat content).
  static Genome synthesize(std::size_t length, util::Xoshiro256& rng,
                           double repeat_fraction = 0.3);

  [[nodiscard]] std::size_t size() const { return bases_.size(); }
  [[nodiscard]] Base at(std::size_t i) const { return bases_.at(i); }
  [[nodiscard]] const std::vector<Base>& bases() const { return bases_; }

  /// Substring [pos, pos+len).
  [[nodiscard]] std::vector<Base> slice(std::size_t pos,
                                        std::size_t len) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Base> bases_;
};

/// A sequencing read with its ground-truth origin.
struct Read {
  std::vector<Base> bases;
  std::size_t true_position = 0;  ///< Where it was sampled from.
};

struct ReadSimConfig {
  std::size_t read_length = 150;
  double substitution_rate = 0.005;  ///< Per-base sequencing errors.

  auto operator<=>(const ReadSimConfig&) const = default;
};

/// Samples `count` reads uniformly from `reference`.
[[nodiscard]] std::vector<Read> sample_reads(const Genome& reference,
                                             std::size_t count,
                                             const ReadSimConfig& config,
                                             util::Xoshiro256& rng);

}  // namespace impact::genomics
