#include "genomics/seed_table.hpp"

#include <utility>

#include "util/assert.hpp"

namespace impact::genomics {

SeedIndex::SeedIndex(const SeedTableConfig& config)
    : buckets_(config.buckets),
      max_positions_(config.max_positions),
      minimizer_(config.minimizer),
      offsets_(config.buckets + 1, 0) {
  util::check(buckets_ > 0, "SeedIndex: needs at least one bucket");
}

SeedIndex::SeedIndex(const SeedTableConfig& config, const Genome& reference)
    : SeedIndex(config) {
  const auto minimizers = extract_minimizers(reference.bases(), minimizer_);
  // Counting pass: each bucket keeps at most max_positions entries.
  std::vector<std::uint32_t> buckets(minimizers.size());
  std::vector<std::uint32_t> fill(buckets_, 0);
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    buckets[i] = bucket_of(minimizers[i].hash);
    std::uint32_t& count = fill[buckets[i]];
    if (count < max_positions_) ++count;
  }
  // Prefix sum, then place positions in minimizer (reference) order, so a
  // full bucket holds its first max_positions arrivals.
  for (std::uint32_t b = 0; b < buckets_; ++b) {
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

std::span<const std::uint32_t> SeedIndex::query_bucket(
    std::uint32_t bucket) const {
  util::check(bucket < buckets_, "query_bucket: bad bucket");
  return {positions_.data() + offsets_[bucket],
          positions_.data() + offsets_[bucket + 1]};
}

double SeedIndex::occupancy() const {
  std::size_t non_empty = 0;
  for (std::uint32_t b = 0; b < buckets_; ++b) {
    non_empty += offsets_[b + 1] > offsets_[b] ? 1 : 0;
  }
  return static_cast<double>(non_empty) / static_cast<double>(buckets_);
}

SeedTable::SeedTable(SeedTableConfig config, std::uint32_t banks)
    : SeedTable(config, banks, std::make_shared<const SeedIndex>(config)) {}

SeedTable::SeedTable(SeedTableConfig config, std::uint32_t banks,
                     std::shared_ptr<const SeedIndex> index)
    : config_(config), banks_(banks), index_(std::move(index)) {
  util::check(banks_ > 0, "SeedTable: needs at least one bank");
  util::check(config_.buckets % banks_ == 0,
              "SeedTable: buckets must be divisible by the bank count");
  util::check(entries_per_bank() * config_.entry_bytes <= config_.row_bytes,
              "SeedTable: per-bank buckets must fit one row");
  util::check(index_ != nullptr && index_->buckets() == config_.buckets &&
                  index_->max_positions() == config_.max_positions &&
                  index_->minimizer() == config_.minimizer,
              "SeedTable: the index was built under another config");
}

void SeedTable::build(const Genome& reference) {
  index_ = std::make_shared<const SeedIndex>(config_, reference);
}

TableLocation SeedTable::locate(std::uint32_t bucket) const {
  util::check(bucket < config_.buckets, "SeedTable::locate: bad bucket");
  TableLocation loc;
  loc.bank = static_cast<dram::BankId>(bucket % banks_);
  loc.row = config_.table_row;
  loc.col = (bucket / banks_) * config_.entry_bytes;
  return loc;
}

}  // namespace impact::genomics
