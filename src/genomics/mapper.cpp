#include "genomics/mapper.hpp"

#include <algorithm>
#include <cstdlib>

namespace impact::genomics {

ReadMapper::ReadMapper(const Genome& reference, const SeedTable& table,
                       ReferenceLayout layout, MapperConfig config,
                       TouchSink sink)
    : reference_(&reference),
      index_(&table.index()),
      table_(&table),
      layout_(layout),
      config_(config),
      sink_(std::move(sink)) {}

ReadMapper::ReadMapper(const Genome& reference, const SeedIndex& index,
                       std::uint32_t bases_per_row, MapperConfig config,
                       TouchSink sink)
    : reference_(&reference),
      index_(&index),
      table_(nullptr),
      layout_{.bases_per_row = bases_per_row},
      config_(config),
      sink_(std::move(sink)) {}

void ReadMapper::touch(MemoryTouch t) const {
  if (table_ != nullptr) t.location = locate(t, *table_, layout_);
  sink_(t);
}

MappingResult ReadMapper::map(const Read& read) {
  MappingResult result;

  // --- Seeding: probe the shared hash table for every read minimizer. ---
  const MinimizerConfig& minimizer = index_->minimizer();
  const auto minimizers = extract_minimizers(read.bases, minimizer);
  std::vector<Anchor> anchors;
  for (const auto& m : minimizers) {
    const std::uint32_t bucket = index_->bucket_of(m.hash);
    if (sink_) {
      touch(MemoryTouch{.kind = MemoryTouch::Kind::kSeedProbe,
                        .bucket = bucket});
    }
    ++result.seed_probes;
    for (std::uint32_t ref_pos : index_->query_bucket(bucket)) {
      anchors.push_back(Anchor{m.position, ref_pos, minimizer.k});
    }
  }
  if (anchors.empty()) return result;

  // --- Chaining. -------------------------------------------------------
  const Chain chain = chain_anchors(std::move(anchors), config_.chain);
  if (chain.anchors.size() < config_.min_chain_anchors) return result;
  const std::int64_t predicted = chain.predicted_start();
  if (predicted < 0) return result;
  result.chain_score = chain.score;

  // --- Alignment of the candidate region. ------------------------------
  const std::size_t flank = config_.candidate_flank;
  const std::size_t start =
      static_cast<std::size_t>(predicted) >= flank
          ? static_cast<std::size_t>(predicted) - flank
          : 0;
  const std::size_t want = read.bases.size() + 2 * flank;
  const std::size_t len = std::min(want, reference_->size() - start);
  if (sink_) {
    // The alignment engine streams the candidate region from DRAM; touch
    // every row-sized chunk it covers.
    const std::size_t chunk_bases = layout_.bases_per_row;
    for (std::size_t pos = start; pos < start + len;
         pos += chunk_bases - (pos % chunk_bases)) {
      touch(MemoryTouch{.kind = MemoryTouch::Kind::kRefFetch,
                        .ref_position = pos});
    }
  }
  const auto target = reference_->slice(start, len);
  const auto aligned =
      banded_edit_distance(read.bases, target,
                           AlignConfig{static_cast<std::uint32_t>(
                               config_.align.band + flank)});

  result.mapped = true;
  result.position = static_cast<std::size_t>(predicted);
  result.edit_distance = aligned.edit_distance;
  return result;
}

double mapping_accuracy(ReadMapper& mapper, const std::vector<Read>& reads,
                        std::size_t tolerance) {
  if (reads.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& read : reads) {
    const auto r = mapper.map(read);
    if (!r.mapped) continue;
    const auto delta =
        static_cast<std::int64_t>(r.position) -
        static_cast<std::int64_t>(read.true_position);
    if (static_cast<std::size_t>(std::llabs(delta)) <= tolerance) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(reads.size());
}

}  // namespace impact::genomics
