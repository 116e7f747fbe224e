// The bank-striped seed hash table shared by all read-mapping users.
//
// §4.3: "The read mapping tool constructs a hash table that contains
// information about the seed locations in the reference genome ... We
// assume the hash table is distributed across multiple DRAM banks"
// (interleaved bank mapping). §5.4 fixes the geometry we reproduce: with B
// banks, each bank holds one hash-table row with (total_buckets / B)
// entries — 16 entries/row at 1024 banks, 8 at 2048, and so on — so
// identifying the touched bank narrows the victim's bucket to
// total_buckets / B candidates.
//
// Only the striping depends on B, so the table is split in two: a
// SeedIndex (which positions sit in which bucket) that devices of every
// bank count can share, and a SeedTable view that stripes it over one
// device's banks.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dram/types.hpp"
#include "genomics/genome.hpp"
#include "genomics/kmer.hpp"

namespace impact::genomics {

/// Where a table structure lives in DRAM.
struct TableLocation {
  dram::BankId bank = 0;
  dram::RowId row = 0;
  std::uint32_t col = 0;

  bool operator==(const TableLocation&) const = default;
};

struct SeedTableConfig {
  std::uint32_t buckets = 16384;      ///< Total buckets (fixed geometry).
  std::uint32_t entry_bytes = 512;    ///< One bucket's in-row footprint.
  std::uint32_t row_bytes = 8192;
  dram::RowId table_row = 20;         ///< The hash-table row in each bank.
  std::uint32_t max_positions = 64;   ///< Occupancy cap per bucket.
  MinimizerConfig minimizer{};

  auto operator<=>(const SeedTableConfig&) const = default;
};

/// The bank-count-independent half of the seed table: the bucket index of
/// every reference minimizer. It reads only `buckets`, `max_positions` and
/// `minimizer` of its config. Positions are stored CSR-style: one offsets
/// array over the buckets and one flat positions array, each bucket's
/// entries back to back. A bucket keeps at most max_positions entries, the
/// first ones in reference order.
class SeedIndex {
 public:
  /// An empty index (every bucket holds no position).
  explicit SeedIndex(const SeedTableConfig& config);
  /// Indexes `reference`: every reference minimizer lands in its bucket
  /// until the bucket is full.
  SeedIndex(const SeedTableConfig& config, const Genome& reference);

  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t minimizer_hash) const {
    return static_cast<std::uint32_t>(minimizer_hash % buckets_);
  }
  /// Reference positions stored in bucket `bucket`.
  [[nodiscard]] std::span<const std::uint32_t> query_bucket(
      std::uint32_t bucket) const;

  [[nodiscard]] std::uint32_t buckets() const { return buckets_; }
  [[nodiscard]] std::uint32_t max_positions() const { return max_positions_; }
  [[nodiscard]] const MinimizerConfig& minimizer() const { return minimizer_; }
  [[nodiscard]] std::size_t total_positions() const {
    return positions_.size();
  }
  [[nodiscard]] double occupancy() const;  ///< Non-empty bucket fraction.

 private:
  std::uint32_t buckets_;
  std::uint32_t max_positions_;
  MinimizerConfig minimizer_;
  // Bucket b holds positions_[offsets_[b], offsets_[b + 1]).
  std::vector<std::uint32_t> offsets_;    // buckets + 1 entries.
  std::vector<std::uint32_t> positions_;  // All buckets, back to back.
};

/// A reference genome and its seed index: everything a read-mapping setup
/// builds that does not depend on the PiM device's bank count, so users of
/// one reference on devices of different sizes can share it.
struct IndexedReference {
  Genome genome;
  SeedIndex index;
};

/// A seed index striped over the banks of a PiM device. The index is held
/// by shared pointer, so views of one index for several bank counts cost
/// only the striping geometry.
class SeedTable {
 public:
  /// `banks` is the DRAM bank count of the PiM device the table is striped
  /// over; buckets must fit the per-bank row (buckets/banks * entry_bytes
  /// <= row_bytes). The table starts empty; `build` indexes a reference.
  SeedTable(SeedTableConfig config, std::uint32_t banks);
  /// A view of an existing index, which must have been built with
  /// config's buckets, max_positions and minimizer. Checks the striping as
  /// the constructor above does.
  SeedTable(SeedTableConfig config, std::uint32_t banks,
            std::shared_ptr<const SeedIndex> index);

  /// Indexes the reference, replacing any earlier index of this table.
  void build(const Genome& reference);

  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t minimizer_hash) const {
    return index_->bucket_of(minimizer_hash);
  }

  /// DRAM location of a bucket (the row a PiM-offloaded probe activates).
  [[nodiscard]] TableLocation locate(std::uint32_t bucket) const;

  /// Reference positions stored in the bucket of `minimizer_hash`.
  [[nodiscard]] std::span<const std::uint32_t> query(
      std::uint64_t minimizer_hash) const {
    return index_->query_bucket(index_->bucket_of(minimizer_hash));
  }

  /// Reference positions of a bucket by index (the attacker-side view:
  /// the table is a shared artifact, so candidate expansion from a leaked
  /// bank/bucket id is free).
  [[nodiscard]] std::span<const std::uint32_t> query_bucket(
      std::uint32_t bucket) const {
    return index_->query_bucket(bucket);
  }

  [[nodiscard]] const SeedTableConfig& config() const { return config_; }
  [[nodiscard]] const SeedIndex& index() const { return *index_; }
  [[nodiscard]] std::uint32_t banks() const { return banks_; }
  [[nodiscard]] std::uint32_t entries_per_bank() const {
    return config_.buckets / banks_;
  }
  [[nodiscard]] std::size_t total_positions() const {
    return index_->total_positions();
  }
  [[nodiscard]] double occupancy() const { return index_->occupancy(); }

 private:
  SeedTableConfig config_;
  std::uint32_t banks_;
  std::shared_ptr<const SeedIndex> index_;
};

/// Layout of the packed reference itself (used by the alignment stage's
/// candidate-region fetches): consecutive row-sized chunks interleave
/// across banks starting at `base_row`.
struct ReferenceLayout {
  std::uint32_t banks = 0;
  dram::RowId base_row = 32;
  std::uint32_t row_bytes = 8192;
  std::uint32_t bases_per_row = 8192 * 4;  ///< 2-bit packed.

  [[nodiscard]] TableLocation locate(std::size_t ref_position) const {
    const std::size_t chunk = ref_position / bases_per_row;
    TableLocation loc;
    loc.bank = static_cast<dram::BankId>(chunk % banks);
    loc.row = base_row + static_cast<dram::RowId>(chunk / banks);
    loc.col = static_cast<std::uint32_t>((ref_position % bases_per_row) / 4);
    return loc;
  }
};

}  // namespace impact::genomics
