// DRAM geometry, timing parameters and row-buffer management policies.
#pragma once

#include <compare>
#include <cstdint>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace impact::dram {

/// Row-buffer management policy of the memory controller. Open-row is the
/// baseline; closed-row (CRP) and constant-time (CTD) are the paper's §6
/// defenses.
enum class RowPolicy : std::uint8_t {
  kOpenRow,       ///< Rows stay open until a conflict or the row timeout.
  kClosedRow,     ///< Bank precharged after every access (defense CRP).
  kConstantTime,  ///< Every access is padded to worst-case latency (CTD).
  kAdaptive,      ///< History-based open/close prediction (Minimalist
                  ///< Open-Page-style): keep the row open only while the
                  ///< bank's recent accesses actually hit. Extension: a
                  ///< middle ground between open-row performance and CRP's
                  ///< channel suppression.
};

[[nodiscard]] constexpr const char* to_string(RowPolicy p) {
  switch (p) {
    case RowPolicy::kOpenRow:
      return "open-row";
    case RowPolicy::kClosedRow:
      return "closed-row";
    case RowPolicy::kConstantTime:
      return "constant-time";
    case RowPolicy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

/// How the open-row timeout (Table 2: 100 ns) is interpreted.
///
/// The covert channels only work if a row activated by the sender is still
/// open when the receiver probes it; with an *unconditional* idle-precharge
/// timeout of 100 ns (260 CPU cycles) the inter-actor probe gap would erase
/// the signal — yet the paper reports working attacks under this very
/// configuration. We therefore model the common scheduler semantics where
/// the timeout only closes a row early to serve *waiting* requests
/// (kContention, the default — an idle bank keeps its row open), and keep
/// the strict idle-precharge semantics available for the ablation study
/// (`impact run ablation_timeout`), where it indeed collapses the channel.
enum class RowTimeoutMode : std::uint8_t {
  kContention,     ///< Timeout is a scheduling hint; idle rows stay open.
  kIdlePrecharge,  ///< Idle rows are force-precharged after the timeout.
};

/// Analog timing parameters in nanoseconds (Table 2: DDR4-2400).
struct TimingParams {
  double trcd_ns = 13.5;   ///< ACT -> first column command.
  double trp_ns = 13.5;    ///< PRE duration.
  double tras_ns = 32.0;   ///< ACT -> earliest PRE (charge restoration).
  double tcas_ns = 13.5;   ///< Column access (CL) for reads/writes.
  double tbl_ns = 3.33;    ///< Burst transfer of one 64 B cache line.
  double row_timeout_ns = 100.0;  ///< Open-row idle timeout (0 = never).
  double rowclone_fpm_ns = 90.0;  ///< In-subarray RowClone FPM copy latency.
  RowTimeoutMode timeout_mode = RowTimeoutMode::kContention;
  /// All-bank auto-refresh: every tREFI the device refreshes for tRFC,
  /// precharging every row buffer (a periodic noise source for row-buffer
  /// channels). trefi_ns = 0 disables refresh (the default, matching the
  /// paper's warmed-up measurement windows).
  double trefi_ns = 0.0;
  double trfc_ns = 350.0;

  auto operator<=>(const TimingParams&) const = default;
};

/// Timing parameters converted to host CPU cycles.
struct Timing {
  util::Cycle trcd = 0;
  util::Cycle trp = 0;
  util::Cycle tras = 0;
  util::Cycle tcas = 0;
  util::Cycle tbl = 0;
  util::Cycle row_timeout = 0;
  util::Cycle rowclone_fpm = 0;
  util::Cycle trefi = 0;
  util::Cycle trfc = 0;
  RowTimeoutMode timeout_mode = RowTimeoutMode::kContention;

  [[nodiscard]] static Timing from(const TimingParams& p,
                                   util::Frequency freq) {
    Timing t;
    t.timeout_mode = p.timeout_mode;
    t.trefi = freq.cycles_for_ns(p.trefi_ns);
    t.trfc = freq.cycles_for_ns(p.trfc_ns);
    t.trcd = freq.cycles_for_ns(p.trcd_ns);
    t.trp = freq.cycles_for_ns(p.trp_ns);
    t.tras = freq.cycles_for_ns(p.tras_ns);
    t.tcas = freq.cycles_for_ns(p.tcas_ns);
    t.tbl = freq.cycles_for_ns(p.tbl_ns);
    t.row_timeout = freq.cycles_for_ns(p.row_timeout_ns);
    t.rowclone_fpm = freq.cycles_for_ns(p.rowclone_fpm_ns);
    return t;
  }

  /// Latency of a row-buffer hit (column access + burst).
  [[nodiscard]] util::Cycle hit_latency() const { return tcas + tbl; }
  /// Latency of an access to a precharged bank (ACT + column + burst).
  [[nodiscard]] util::Cycle empty_latency() const {
    return trcd + tcas + tbl;
  }
  /// Latency of a row conflict (PRE + ACT + column + burst).
  [[nodiscard]] util::Cycle conflict_latency() const {
    return trp + trcd + tcas + tbl;
  }
};

/// Full device configuration (Table 2 defaults: DDR4-2400, 1 channel,
/// 4 ranks, 16 banks/rank, 8 KiB rows).
struct DramConfig {
  std::uint32_t channels = 1;
  std::uint32_t ranks = 4;
  std::uint32_t banks_per_rank = 16;
  std::uint32_t rows_per_bank = 65536;
  std::uint32_t row_bytes = 8192;
  std::uint32_t subarray_rows = 512;  ///< Rows per subarray (RowClone FPM
                                      ///< works only within a subarray).
  RowPolicy policy = RowPolicy::kOpenRow;
  TimingParams timing{};
  util::Frequency freq = util::kDefaultFrequency;

  auto operator<=>(const DramConfig&) const = default;

  [[nodiscard]] std::uint32_t total_banks() const {
    return channels * ranks * banks_per_rank;
  }
  [[nodiscard]] std::uint64_t bank_bytes() const {
    return static_cast<std::uint64_t>(rows_per_bank) * row_bytes;
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return bank_bytes() * total_banks();
  }
  [[nodiscard]] Timing derived_timing() const {
    return Timing::from(timing, freq);
  }

  void validate() const {
    util::check(channels > 0 && ranks > 0 && banks_per_rank > 0,
                "DramConfig: geometry counts must be positive");
    util::check(rows_per_bank > 0 && row_bytes > 0,
                "DramConfig: row geometry must be positive");
    util::check(subarray_rows > 0 && rows_per_bank % subarray_rows == 0,
                "DramConfig: subarray_rows must divide rows_per_bank");
    util::check((row_bytes & (row_bytes - 1)) == 0,
                "DramConfig: row_bytes must be a power of two");
  }
};

}  // namespace impact::dram
