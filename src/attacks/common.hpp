// Shared machinery for row-buffer covert-channel attacks.
//
// All single-bank-per-bit attacks (IMPACT-PnM, DRAMA-clflush,
// DRAMA-eviction, DMA-engine, direct-access, PnM-OffChip) follow the same
// protocol skeleton (§4.1): sender and receiver co-locate one row each in
// every signalling bank; bits are sent in batches, 1 = activate the sender
// row (row-buffer interference), 0 = do nothing; a semaphore overlaps the
// sender's batch k+1 with the receiver's probing of batch k. The subclasses
// only differ in *how* the sender activates a row and how the receiver
// probes — i.e. in the attack primitive of Table 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/attack.hpp"
#include "channel/report.hpp"
#include "channel/threshold.hpp"
#include "sys/noise.hpp"
#include "sys/system.hpp"
#include "util/bitvec.hpp"

namespace impact::attacks {

/// Actor ids used by all attacks.
inline constexpr dram::ActorId kSender = 1;
inline constexpr dram::ActorId kReceiver = 2;
inline constexpr dram::ActorId kVictim = 3;

struct RowChannelConfig {
  std::uint32_t banks = 16;       ///< Signalling banks (message width unit).
  std::uint32_t batch_bits = 4;   ///< M, bits per synchronization batch.
  dram::RowId receiver_row = 64;  ///< Receiver's probe row per bank.
  dram::RowId sender_row = 96;    ///< Sender's interference row per bank.
  std::size_t calibration_bits = 64;
  util::Cycle sender_nop_cost = 1;
  util::Cycle fence_cost = 20;    ///< Sender's post-batch memory fence.
  /// Sender threads: a batch's bits are distributed round-robin over this
  /// many cores, joining before the semaphore post. One PuM sender gets
  /// the same bank-parallelism from a single masked RowClone that a PnM
  /// sender needs this many threads (and PEIs) to approximate — the §4.2
  /// "less computational resources" contrast, measurable in
  /// `impact run ablation_sweep`.
  std::uint32_t sender_threads = 1;
  /// Receiver threads: batch probes distributed the same way (each thread
  /// owns its own timer; decode happens after the join). The receiver is
  /// the throughput bottleneck of every row-buffer channel, so this is
  /// the knob that actually multiplies rate — at a proportional compute
  /// cost (future-work territory for the paper).
  std::uint32_t receiver_threads = 1;
  /// Fork/join cost per batch when a side uses multiple threads.
  util::Cycle join_cost = 20;
  /// Receiver-side bound on one batch wait (sem_timedwait deadline). When
  /// a post never arrives — only possible under injected semaphore-drop
  /// faults — the receiver gives up after this many cycles and probes the
  /// batch anyway (bank state is already written by then), instead of the
  /// process aborting on a missed post. Fault-free runs always find the
  /// post pending, so the value never changes their timing.
  util::Cycle wait_timeout = 20000;
};

class RowBufferChannelBase : public channel::CovertAttack {
 public:
  RowBufferChannelBase(sys::MemorySystem& system, RowChannelConfig config);

  /// Calibrated decision threshold (cycles). Calibration runs lazily on
  /// the first transmit.
  [[nodiscard]] double threshold() const { return threshold_; }

  /// Receiver-measured latency of each bit of the last transmission
  /// (Fig. 7 uses this for a 16-bit message).
  [[nodiscard]] const std::vector<double>& last_latencies() const {
    return last_latencies_;
  }

  /// Attaches a background-noise process: it is advanced alongside the
  /// actors so its DRAM traffic interleaves with the channel's. The noise
  /// object must outlive the attack. Pass nullptr to detach.
  void set_noise(sys::BackgroundNoise* noise) { noise_ = noise; }

  /// Re-runs threshold calibration against the channel's current state —
  /// the recovery action when the framed protocol's drift detector trips.
  util::Cycle recalibrate() override;

  /// Batch waits that timed out (receiver resynchronized itself) during
  /// the last transmit(). Nonzero only under semaphore-drop faults.
  [[nodiscard]] std::size_t last_sync_timeouts() const {
    return last_sync_timeouts_;
  }

 protected:
  /// The shared row-buffer channel loop (batching, semaphore sync, noise
  /// interleaving); called through CovertAttack::transmit, and directly by
  /// calibrate() so calibration traffic is not counted as payload.
  channel::TransmissionResult do_transmit(const util::BitVec& message) final;

  /// One-time setup: map per-bank rows, warm structures.
  virtual void setup();

  /// Sender-side action for one bit. Must advance `clock` by the cost of
  /// transmitting `bit` into `bank` (a NOP for 0 unless the primitive
  /// requires work for both values).
  virtual void send_bit(std::uint32_t bank, bool bit, util::Cycle& clock) = 0;

  /// Receiver-side probe of `bank`: performs the timed operation and
  /// returns the latency the attacker's timer would show. Must advance
  /// `clock` by everything the probe costs (including measurement).
  virtual double probe(std::uint32_t bank, util::Cycle& clock) = 0;

  // --- Batched hooks (tentpole perf path) -----------------------------
  // do_transmit drives a whole batch through one virtual call when a side
  // runs single-threaded; primitives with a batch kernel (IMPACT-PnM via
  // PeiDispatcher::execute_batch) override these. The defaults fall back
  // to the scalar hooks, so every subclass stays correct unmodified. An
  // override MUST advance `clock` and produce latencies bit-identically
  // to the equivalent scalar loop; PeiTest.ExecuteBatchMatchesScalarLoop
  // (tests/test_pim.cpp) pins the PnM kernel against it.

  /// Sender-side run: transmits bits[k] into banks[k] for k in [0, count).
  virtual void send_run(const std::uint32_t* banks, const std::uint8_t* bits,
                        std::size_t count, util::Cycle& clock) {
    for (std::size_t k = 0; k < count; ++k) {
      send_bit(banks[k], bits[k] != 0, clock);
    }
  }

  /// Receiver-side run: probes banks[k], writing latencies[k].
  virtual void probe_run(const std::uint32_t* banks, std::size_t count,
                         util::Cycle& clock, double* latencies) {
    for (std::size_t k = 0; k < count; ++k) {
      latencies[k] = probe(banks[k], clock);
    }
  }

  /// Access to per-bank spans mapped in setup().
  [[nodiscard]] sys::VAddr receiver_addr(std::uint32_t bank) const {
    return receiver_spans_[bank].vaddr;
  }
  [[nodiscard]] sys::VAddr sender_addr(std::uint32_t bank) const {
    return sender_spans_[bank].vaddr;
  }

  sys::MemorySystem& system() { return *system_; }
  [[nodiscard]] const RowChannelConfig& config() const { return config_; }

  /// Measurement bracket cost helper (cpuid;rdtscp ... rdtscp).
  [[nodiscard]] util::Cycle measurement_overhead() const;

 private:
  void ensure_ready();
  void calibrate();

  sys::MemorySystem* system_;
  RowChannelConfig config_;
  bool ready_ = false;
  double threshold_ = 0.0;
  std::vector<sys::VSpan> receiver_spans_;
  std::vector<sys::VSpan> sender_spans_;
  std::vector<double> last_latencies_;
  sys::BackgroundNoise* noise_ = nullptr;
  util::Cycle sender_clock_ = 0;
  util::Cycle receiver_clock_ = 0;
  std::size_t last_sync_timeouts_ = 0;
  // Reusable per-batch scratch (do_transmit is not reentrant; the one
  // nested call — calibration inside ensure_ready() — completes before
  // the outer transmit touches these).
  std::vector<std::uint32_t> batch_banks_;
  std::vector<std::uint8_t> batch_bits_;
  std::vector<util::Cycle> worker_clocks_;
  std::vector<util::Cycle> probe_clocks_;
};

}  // namespace impact::attacks
