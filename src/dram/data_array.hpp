// Functional (value-level) storage for DRAM rows.
//
// Timing and contents are deliberately separated: `Bank` models *when*
// commands complete, `DataArray` models *what* the cells hold. Rows are
// stored sparsely (a simulated device can be many gigabytes, but only rows
// an experiment writes carry data). Absent rows read as zero, matching an
// initialized device, and RowClone keeps zero rows absent.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dram/config.hpp"
#include "dram/types.hpp"

namespace impact::dram {

class DataArray {
 public:
  explicit DataArray(const DramConfig& config)
      : banks_(config.total_banks()),
        rows_(config.rows_per_bank),
        row_bytes_(config.row_bytes) {}

  /// Reads `out.size()` bytes starting at (bank,row,col); must not cross a
  /// row boundary (callers split accesses, as the DRAM burst does).
  void read(const DramAddress& loc, std::span<std::uint8_t> out) const;

  /// Writes `in.size()` bytes starting at (bank,row,col); same row-boundary
  /// rule as `read`.
  void write(const DramAddress& loc, std::span<const std::uint8_t> in);

  /// Copies an entire source row over a destination row within one bank
  /// (the functional effect of RowClone); an absent source erases `dst`.
  void clone_row(BankId bank, RowId src, RowId dst);

  /// Fills an entire row with `value` (RowClone-based initialization).
  void fill_row(BankId bank, RowId row, std::uint8_t value);

  /// Number of rows that have been materialized (for tests / memory use).
  [[nodiscard]] std::size_t materialized_rows() const { return store_.size(); }

  [[nodiscard]] std::uint32_t row_bytes() const { return row_bytes_; }

 private:
  [[nodiscard]] std::uint64_t key(BankId bank, RowId row) const;
  [[nodiscard]] const std::vector<std::uint8_t>* find_row(BankId bank,
                                                          RowId row) const;
  std::vector<std::uint8_t>& materialize(BankId bank, RowId row);

  std::uint32_t banks_;
  std::uint32_t rows_;
  std::uint32_t row_bytes_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> store_;
};

}  // namespace impact::dram
