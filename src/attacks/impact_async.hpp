// IMPACT-Async: a synchronization-free PnM covert channel (extension).
//
// The paper's Streamline comparison point owes its speed to *asynchronous
// collusion* — no per-batch handshake. The same idea applies to the PiM
// channel: sender and receiver agree (offline) on a slot length and derive
// slot boundaries from their timestamp counters; the sender transmits bit
// k during slot k and the receiver probes mid-slot. No semaphores, no
// fences — the slot length is the only rate limit, but slots shorter than
// the probe path overrun and the channel degrades, which is the trade-off
// `impact run ablation_sweep` measures.
#pragma once

#include <vector>

#include "channel/attack.hpp"
#include "channel/threshold.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"

namespace impact::attacks {

struct ImpactAsyncConfig {
  std::uint32_t banks = 16;
  util::Cycle slot_cycles = 240;  ///< Agreed slot length.
  dram::RowId receiver_row = 64;
  dram::RowId sender_row = 96;
  std::size_t calibration_bits = 64;
  pim::PeiConfig pei{};
};

class ImpactAsync final : public channel::CovertAttack {
 public:
  explicit ImpactAsync(sys::MemorySystem& system,
                       ImpactAsyncConfig config = {});

  [[nodiscard]] std::string name() const override { return "IMPACT-Async"; }

  [[nodiscard]] double threshold() const { return threshold_; }
  /// Fraction of receiver probes that overran their slot in the last
  /// transmission (the failure mode of too-aggressive slot lengths).
  [[nodiscard]] double overrun_rate() const { return overrun_rate_; }

 protected:
  channel::TransmissionResult do_transmit(const util::BitVec& message)
      override;

 private:
  void ensure_ready();
  void calibrate();

  sys::MemorySystem* system_;
  ImpactAsyncConfig config_;
  bool ready_ = false;
  double threshold_ = 0.0;
  double overrun_rate_ = 0.0;
  std::vector<sys::VSpan> receiver_spans_;
  std::vector<sys::VSpan> sender_spans_;
  std::vector<double> last_latencies_;
  pim::PeiDispatcher sender_pei_;
  pim::PeiDispatcher receiver_pei_;
  util::Cycle epoch_ = 0;  ///< Slot-grid origin, advanced per message.
};

}  // namespace impact::attacks
