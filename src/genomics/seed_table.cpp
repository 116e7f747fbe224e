#include "genomics/seed_table.hpp"

#include "util/assert.hpp"

namespace impact::genomics {

SeedTable::SeedTable(SeedTableConfig config, std::uint32_t banks)
    : config_(config), banks_(banks) {
  util::check(banks_ > 0, "SeedTable: needs at least one bank");
  util::check(config_.buckets % banks_ == 0,
              "SeedTable: buckets must be divisible by the bank count");
  util::check(entries_per_bank() * config_.entry_bytes <= config_.row_bytes,
              "SeedTable: per-bank buckets must fit one row");
  offsets_.assign(config_.buckets + 1, 0);
}

void SeedTable::build(const Genome& reference) {
  const auto minimizers =
      extract_minimizers(reference.bases(), config_.minimizer);
  // Counting pass: each bucket keeps at most max_positions entries.
  std::vector<std::uint32_t> buckets(minimizers.size());
  std::vector<std::uint32_t> fill(config_.buckets, 0);
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    buckets[i] = bucket_of(minimizers[i].hash);
    std::uint32_t& count = fill[buckets[i]];
    if (count < config_.max_positions) ++count;
  }
  // Prefix sum, then place positions in minimizer (reference) order, so a
  // full bucket holds its first max_positions arrivals.
  for (std::uint32_t b = 0; b < config_.buckets; ++b) {
    offsets_[b + 1] = offsets_[b] + fill[b];
    fill[b] = offsets_[b];
  }
  positions_.assign(offsets_.back(), 0);
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    std::uint32_t& cursor = fill[buckets[i]];
    if (cursor < offsets_[buckets[i] + 1]) {
      positions_[cursor++] = minimizers[i].position;
    }
  }
}

TableLocation SeedTable::locate(std::uint32_t bucket) const {
  util::check(bucket < config_.buckets, "SeedTable::locate: bad bucket");
  TableLocation loc;
  loc.bank = static_cast<dram::BankId>(bucket % banks_);
  loc.row = config_.table_row;
  loc.col = (bucket / banks_) * config_.entry_bytes;
  return loc;
}

std::span<const std::uint32_t> SeedTable::query(
    std::uint64_t minimizer_hash) const {
  return query_bucket(bucket_of(minimizer_hash));
}

std::span<const std::uint32_t> SeedTable::query_bucket(
    std::uint32_t bucket) const {
  util::check(bucket < config_.buckets, "query_bucket: bad bucket");
  return {positions_.data() + offsets_[bucket],
          positions_.data() + offsets_[bucket + 1]};
}

double SeedTable::occupancy() const {
  std::size_t non_empty = 0;
  for (std::uint32_t b = 0; b < config_.buckets; ++b) {
    non_empty += offsets_[b + 1] > offsets_[b] ? 1 : 0;
  }
  return static_cast<double>(non_empty) /
         static_cast<double>(config_.buckets);
}

}  // namespace impact::genomics
