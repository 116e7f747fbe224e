#include "dram/data_array.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace impact::dram {

std::uint64_t DataArray::key(BankId bank, RowId row) const {
  util::check(bank < banks_, "DataArray: bank out of range");
  util::check(row < rows_, "DataArray: row out of range");
  return (static_cast<std::uint64_t>(bank) << 32) | row;
}

const std::vector<std::uint8_t>* DataArray::find_row(BankId bank,
                                                     RowId row) const {
  const auto it = store_.find(key(bank, row));
  return it == store_.end() ? nullptr : &it->second;
}

std::vector<std::uint8_t>& DataArray::materialize(BankId bank, RowId row) {
  auto [it, inserted] = store_.try_emplace(key(bank, row));
  if (inserted) it->second.assign(row_bytes_, 0);
  return it->second;
}

void DataArray::read(const DramAddress& loc,
                     std::span<std::uint8_t> out) const {
  util::check(loc.col + out.size() <= row_bytes_,
              "DataArray::read crosses a row boundary");
  const auto* row = find_row(loc.bank, loc.row);
  if (row == nullptr) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  std::memcpy(out.data(), row->data() + loc.col, out.size());
}

void DataArray::write(const DramAddress& loc,
                      std::span<const std::uint8_t> in) {
  util::check(loc.col + in.size() <= row_bytes_,
              "DataArray::write crosses a row boundary");
  auto& row = materialize(loc.bank, loc.row);
  std::memcpy(row.data() + loc.col, in.data(), in.size());
}

// SIMLINT-HOT-BEGIN: per-leg RowClone path, next to rowclone_into.
void DataArray::clone_row(BankId bank, RowId src, RowId dst) {
  const std::uint64_t src_key = key(bank, src);
  const std::uint64_t dst_key = key(bank, dst);
  if (src_key == dst_key) return;
  const auto it = store_.find(src_key);
  if (it == store_.end()) {
    // A zero source leaves a zero, hence absent, destination.
    store_.erase(dst_key);
    return;
  }
  // unordered_map node references survive inserts (and rehashes), so the
  // source row copies straight into the destination's buffer.
  const std::vector<std::uint8_t>& from = it->second;
  store_[dst_key] = from;
}
// SIMLINT-HOT-END

void DataArray::fill_row(BankId bank, RowId row, std::uint8_t value) {
  materialize(bank, row).assign(row_bytes_, value);
}

}  // namespace impact::dram
