// The minimap2-flavoured read mapper whose seeding and alignment steps are
// offloaded to the PiM-enabled system (§4.3's victim application).
//
// The mapper itself is a pure algorithm; every DRAM-visible step (seed
// table probe, candidate-region fetch) is reported through a TouchSink so
// the side-channel harness can charge the access to the simulated PiM
// system and record the ground truth the attacker tries to recover.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "genomics/align.hpp"
#include "genomics/chain.hpp"
#include "genomics/genome.hpp"
#include "genomics/kmer.hpp"
#include "genomics/seed_table.hpp"

namespace impact::genomics {

/// One DRAM-visible access performed by the mapper's PiM offload. Its
/// kind with `bucket` or `ref_position` names what it reads on any device;
/// `location` is where that lands on one device (see locate).
struct MemoryTouch {
  enum class Kind : std::uint8_t { kSeedProbe, kRefFetch };
  Kind kind = Kind::kSeedProbe;
  TableLocation location{};
  std::uint32_t bucket = 0;        ///< Valid for kSeedProbe.
  std::size_t ref_position = 0;    ///< Valid for kRefFetch: first base read.
};

/// Where `touch` lands on the device `table` and `layout` stripe over.
[[nodiscard]] inline TableLocation locate(const MemoryTouch& touch,
                                          const SeedTable& table,
                                          const ReferenceLayout& layout) {
  return touch.kind == MemoryTouch::Kind::kSeedProbe
             ? table.locate(touch.bucket)
             : layout.locate(touch.ref_position);
}

using TouchSink = std::function<void(const MemoryTouch&)>;

struct MapperConfig {
  ChainConfig chain{};
  AlignConfig align{};
  std::uint32_t candidate_flank = 24;  ///< Extra reference bases aligned.
  std::uint32_t min_chain_anchors = 2; ///< Below this, the read is unmapped.

  auto operator<=>(const MapperConfig&) const = default;
};

struct MappingResult {
  bool mapped = false;
  std::size_t position = 0;
  std::uint32_t edit_distance = 0;
  double chain_score = 0.0;
  std::size_t seed_probes = 0;
};

class ReadMapper {
 public:
  /// All references must outlive the mapper. `sink` may be empty. Touches
  /// carry their location on the device `table` and `layout` stripe over.
  ReadMapper(const Genome& reference, const SeedTable& table,
             ReferenceLayout layout, MapperConfig config = {},
             TouchSink sink = {});
  /// A mapper for no device in particular: touches carry only their kind
  /// and bucket or reference position. The control flow reads only the
  /// genome, the index and `bases_per_row`, so it emits the touches the
  /// constructor above would, for a table viewing `index` and a layout of
  /// `bases_per_row`, less their locations.
  ReadMapper(const Genome& reference, const SeedIndex& index,
             std::uint32_t bases_per_row, MapperConfig config = {},
             TouchSink sink = {});

  /// Maps one read: seeding (hash-table probes) -> chaining -> banded
  /// alignment of the best candidate region.
  MappingResult map(const Read& read);

 private:
  /// Locates `t` if the mapper has a device, then reports it.
  void touch(MemoryTouch t) const;

  const Genome* reference_;
  const SeedIndex* index_;
  const SeedTable* table_;  ///< Null for a device-independent mapper.
  ReferenceLayout layout_;
  MapperConfig config_;
  TouchSink sink_;
};

/// Fraction of reads mapped within `tolerance` bases of their true origin.
[[nodiscard]] double mapping_accuracy(
    ReadMapper& mapper, const std::vector<Read>& reads,
    std::size_t tolerance = 5);

}  // namespace impact::genomics
