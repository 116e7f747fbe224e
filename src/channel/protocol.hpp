// Resilient framed transmission over any covert channel.
//
// The paper's throughput accounting (§5.1) charges errors against goodput
// but leaves recovery to the reader; a real attacker on a perturbed system
// needs a *protocol*: framing to localize damage, integrity checks to
// detect it, retransmission to repair it, and threshold recalibration when
// the channel itself drifts. This layer wraps any CovertAttack with
// exactly that machinery:
//
//   frame    := preamble | seq | payload | crc8(seq|payload)
//   transfer := for each frame: transmit (optionally under an inner code),
//               verify preamble/seq/CRC, ACK or NACK over a low-rate
//               backward channel, retransmit on NACK up to a bounded retry
//               budget; consecutive failures trip a drift detector that
//               recalibrates the attack's decision threshold.
//
// The result reports effective goodput, retransmission and recalibration
// counts, and residual BER — making the coding-vs-protocol tradeoff a
// measured ablation (`impact run ablation_faults`, docs/robustness.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "channel/attack.hpp"
#include "channel/coding.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace impact::channel {

/// CRC-8 (polynomial 0x07, init 0) over bits [begin, end) of `bits`,
/// consumed MSB-first in groups of 8 (the tail group zero-padded).
[[nodiscard]] std::uint8_t crc8(const util::BitVec& bits, std::size_t begin,
                                std::size_t end);

struct ProtocolConfig {
  std::size_t payload_bits = 32;       ///< Message bits per frame.
  std::size_t preamble_bits = 8;       ///< Sync pattern 1010...11.
  std::size_t seq_bits = 4;            ///< Frame sequence number (mod 2^n).
  std::size_t max_retries = 8;         ///< Retransmissions per frame.
  /// Hamming-distance tolerance when matching the preamble: 1 keeps frame
  /// sync through an isolated bit flip; the CRC still guards integrity.
  std::size_t preamble_tolerance = 1;
  /// Inner code applied to each whole frame before transmission.
  CodeKind code = CodeKind::kNone;
  /// Cost of one ACK/NACK over the low-rate backward channel. The reverse
  /// direction is modelled as reliable but slow (the attacker can afford
  /// heavy redundancy on a one-bit feedback message).
  util::Cycle feedback_cycles = 2000;
  /// Drift detector: this many *consecutive* failed frame attempts trigger
  /// one threshold recalibration of the underlying attack. 0 disables.
  std::size_t recalibrate_after = 2;
};

struct ProtocolResult {
  util::BitVec decoded;              ///< Recovered message bits.
  bool complete = false;             ///< Every frame delivered intact.
  std::size_t frames = 0;
  std::size_t transmissions = 0;     ///< Frame transmissions incl. retries.
  std::size_t retransmissions = 0;
  std::size_t failed_frames = 0;     ///< Frames that exhausted retries.
  std::size_t recalibrations = 0;
  std::size_t residual_errors = 0;   ///< Message-bit errors after recovery.
  std::size_t channel_bits = 0;      ///< Raw bits pushed over the channel.
  std::size_t channel_bit_errors = 0;
  util::Cycle elapsed_cycles = 0;    ///< Transmits + feedback + recalib.

  /// Channel-bit error rate across every attempt (pre-recovery).
  [[nodiscard]] double raw_error_rate() const {
    return channel_bits == 0
               ? 0.0
               : static_cast<double>(channel_bit_errors) /
                     static_cast<double>(channel_bits);
  }
  /// Correct message bits per second, all protocol overhead included.
  [[nodiscard]] double goodput_mbps(util::Frequency freq) const {
    return freq.mbps(
        static_cast<double>(decoded.size() - residual_errors),
        elapsed_cycles);
  }
};

/// Frames `message` and transfers it over `attack` with retransmission and
/// drift recovery. Reusable across messages; not thread-safe (one protocol
/// instance per channel, like the attack it wraps).
class FramedProtocol {
 public:
  explicit FramedProtocol(CovertAttack& attack, ProtocolConfig config = {});

  [[nodiscard]] const ProtocolConfig& config() const { return config_; }

  /// Bits of framing overhead added to each frame's payload.
  [[nodiscard]] std::size_t frame_overhead_bits() const {
    return config_.preamble_bits + config_.seq_bits + 8;
  }

  ProtocolResult send(const util::BitVec& message);

 private:
  /// Builds the frame for payload bits [base, base+len) into `frame`
  /// (cleared first; capacity is retained across frames).
  void build_frame_into(std::size_t seq, const util::BitVec& message,
                        std::size_t base, std::size_t len,
                        util::BitVec& frame) const;
  /// Validates preamble/seq/CRC of a received frame and extracts the
  /// payload. Returns false on any mismatch (caller NACKs).
  bool parse_frame(const util::BitVec& wire, std::size_t seq,
                   std::size_t len, util::BitVec& payload) const;

  CovertAttack* attack_;
  ProtocolConfig config_;

  // Reusable frame-loop buffers: send() transmits every frame through
  // these instead of allocating per frame/attempt (send is not
  // re-entrant; the class is documented single-channel, not thread-safe).
  util::BitVec frame_scratch_;
  util::BitVec wire_scratch_;
  util::BitVec received_scratch_;
  util::BitVec payload_scratch_;
  util::BitVec best_effort_scratch_;

  // obs spine: every counter in ProtocolResult is mirrored into the ambient
  // registry at the end of send(), and retransmit/recalibrate decisions
  // land in the trace as instant events on the protocol's own cycle line.
  obs::Counter obs_frames_;
  obs::Counter obs_transmissions_;
  obs::Counter obs_retransmissions_;
  obs::Counter obs_failed_frames_;
  obs::Counter obs_recalibrations_;
  obs::Counter obs_residual_errors_;
  obs::Counter obs_channel_bits_;
  obs::Counter obs_channel_bit_errors_;
  obs::TraceSession* obs_trace_ = nullptr;
  util::Cycle obs_cursor_ = 0;  ///< Accumulated protocol time across sends.
};

}  // namespace impact::channel
