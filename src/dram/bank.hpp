// Per-bank row-buffer state machine.
//
// A bank tracks which row (if any) its row buffer holds, the earliest cycle
// at which it can accept the next command, and when the open row was last
// touched (for the open-row idle timeout). Multiple simulated actors access
// the same bank with their own local clocks; the bank serializes them by
// starting each command at max(actor_time, bank_ready) — this is exactly the
// queuing delay a real per-bank command queue imposes, and it is the
// mechanism through which a sender's activity becomes visible in a
// receiver's measured latency.
#pragma once

#include <cstdint>
#include <optional>

#include "dram/config.hpp"
#include "dram/observer.hpp"
#include "dram/types.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace impact::dram {

/// Result of one bank access as observed by the issuing actor.
struct BankAccessResult {
  util::Cycle start = 0;       ///< Cycle the command actually began.
  util::Cycle completion = 0;  ///< Cycle the data burst finished.
  /// For RowClone: cycle at which the controller has issued both
  /// activations (any required precharge done) and can acknowledge the
  /// command to the core; the copy itself completes at `completion`. For
  /// ordinary accesses, equals `completion`.
  util::Cycle ack = 0;
  RowBufferOutcome outcome = RowBufferOutcome::kEmpty;

  /// Latency from the actor's point of view (issue -> data), including any
  /// queuing delay behind other actors' commands. `Cycle` is unsigned, so
  /// an out-of-order pair would wrap into an absurdly large latency that
  /// still looks plausible downstream — assert instead.
  [[nodiscard]] util::Cycle latency(util::Cycle issued_at) const {
    IMPACT_ASSERT(completion >= issued_at);
    return completion - issued_at;
  }
};

/// Counters for workload characterization (row-buffer locality, Fig. 11).
struct BankStats {
  std::uint64_t hits = 0;
  std::uint64_t empties = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t activations = 0;
  std::uint64_t rowclones = 0;
  std::uint64_t precharges = 0;  ///< Explicit PREs (Bank::precharge).

  [[nodiscard]] std::uint64_t accesses() const {
    return hits + empties + conflicts;
  }
  [[nodiscard]] double hit_rate() const {
    const auto n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }

  BankStats& operator+=(const BankStats& o) {
    hits += o.hits;
    empties += o.empties;
    conflicts += o.conflicts;
    activations += o.activations;
    rowclones += o.rowclones;
    precharges += o.precharges;
    return *this;
  }
};

class Bank {
 public:
  Bank(const Timing& timing, RowPolicy policy)
      : timing_(&timing),
        policy_(policy),
        next_refresh_at_(timing.trefi > 0 ? timing.trefi : kNoRefresh) {}

  /// Performs a read/write-class access to `row` at actor time `now`.
  BankAccessResult access(RowId row, util::Cycle now);

  /// Performs an in-subarray RowClone (two back-to-back activations). On
  /// completion the destination row is latched in the row buffer.
  BankAccessResult rowclone(RowId src, RowId dst, util::Cycle now);

  /// Row currently latched in the row buffer as of cycle `now` (accounting
  /// for the idle timeout), or nullopt when precharged. Does not modify
  /// observable state other than applying an elapsed timeout.
  [[nodiscard]] std::optional<RowId> open_row(util::Cycle now);

  /// Earliest cycle the bank can begin a new command.
  [[nodiscard]] util::Cycle ready_at() const { return ready_at_; }

  /// Forces an external delay: the bank may not start commands before
  /// `cycle`. Used for atomic multi-bank RowClone gating.
  void stall_until(util::Cycle cycle);

  /// Closes the row buffer immediately (e.g. a PRE from a refresh or a
  /// partition-flush); the precharge occupies the bank for tRP.
  void precharge(util::Cycle now);

  [[nodiscard]] const BankStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = BankStats{};
    if (observer_ != nullptr) observer_->on_stats_reset(id_);
  }

  [[nodiscard]] RowPolicy policy() const { return policy_; }
  void set_policy(RowPolicy p) { policy_ = p; }

  /// Attaches a command observer (nullptr detaches). The bank does not know
  /// its own index in the controller, so the flat id to stamp on records is
  /// provided here.
  void set_observer(CommandObserver* observer, BankId id) {
    observer_ = observer;
    id_ = id;
  }

 private:
  /// Emits a record for a just-completed command. `true_outcome` is the
  /// internal classification before any constant-time masking. The
  /// detached-observer case is the common one (benches and experiment
  /// sweeps run with the checker off), so the null test is inlined here
  /// and the record construction + virtual dispatch live out of line —
  /// an unobserved command pays one predictable branch.
  void notify(CommandKind kind, RowId row, RowId src, util::Cycle issue,
              const BankAccessResult& r, RowBufferOutcome true_outcome) {
    if (observer_ == nullptr) return;
    notify_observer(kind, row, src, issue, r, true_outcome);
  }
  void notify_observer(CommandKind kind, RowId row, RowId src,
                       util::Cycle issue, const BankAccessResult& r,
                       RowBufferOutcome true_outcome);

  /// Applies the open-row idle timeout as of `now` and classifies what the
  /// requested activation will see.
  RowBufferOutcome resolve_outcome(RowId row, util::Cycle start);

  const Timing* timing_;
  RowPolicy policy_;
  std::optional<RowId> open_row_;
  util::Cycle ready_at_ = 0;
  util::Cycle last_touch_ = 0;     ///< Last command touching the open row.
  util::Cycle last_activate_ = 0;  ///< For the tRAS constraint.
  util::Cycle refresh_epoch_ = 0;  ///< Last tREFI window already applied.
  /// First cycle of the next unapplied refresh window, i.e.
  /// `(refresh_epoch_ + 1) * trefi` (kNoRefresh when trefi == 0). Caching
  /// the boundary turns the two per-access epoch checks (open_row runs at
  /// `now` and again at `start`) from 64-bit divisions into compares; the
  /// division only runs when a boundary is actually crossed.
  static constexpr util::Cycle kNoRefresh = ~util::Cycle{0};
  util::Cycle next_refresh_at_ = kNoRefresh;
  /// Adaptive policy: 2-bit keep-open confidence (hits raise, conflicts
  /// lower; the row auto-precharges while confidence is low).
  std::uint8_t open_confidence_ = 2;
  BankStats stats_;
  CommandObserver* observer_ = nullptr;
  BankId id_ = 0;
};

}  // namespace impact::dram
