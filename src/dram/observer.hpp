// Lightweight command-stream observation hook for the DRAM model.
//
// A `CommandObserver` attached to a bank (via `Bank::set_observer`, usually
// through `MemoryController::set_observer`) receives one `CommandRecord` per
// bank-level command after the bank has fully resolved its timing. The
// record carries the *internal* row-buffer outcome — for the constant-time
// policy this is the real hit/empty/conflict classification, not the padded
// conflict the issuer observes — so an observer can reconcile `BankStats`
// and validate the state machine independently of defense masking.
//
// Two internal observers use the seam: the protocol checker, which
// re-derives every BankStats count from the stream, and the obs:: trace
// tap, which draws spans. Neither is the source of the `dram.*` counters:
// those are BankStats, which the banks keep with no observer attached.
//
// The hook is a single virtual call plus a struct copy per command and is
// only taken when an observer is attached; the hot path stays branch-cheap
// otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/config.hpp"
#include "dram/types.hpp"
#include "util/units.hpp"

namespace impact::dram {

/// Bank-level command classes visible to observers.
enum class CommandKind : std::uint8_t {
  kAccess,    ///< Read/write-class access (ACT as needed + column + burst).
  kRowClone,  ///< In-subarray FPM copy (back-to-back activations).
  kPrecharge, ///< Explicit PRE (refresh flush, partition flush, ...).
};

[[nodiscard]] constexpr const char* to_string(CommandKind k) {
  switch (k) {
    case CommandKind::kAccess:
      return "access";
    case CommandKind::kRowClone:
      return "rowclone";
    case CommandKind::kPrecharge:
      return "precharge";
  }
  return "?";
}

/// One fully-timed bank command as the bank executed it.
struct CommandRecord {
  CommandKind kind = CommandKind::kAccess;
  BankId bank = 0;
  RowId row = 0;      ///< Access target row; RowClone destination row.
  RowId src_row = 0;  ///< RowClone source row (0 otherwise).
  util::Cycle issue = 0;       ///< Actor time the command reached the bank.
  util::Cycle start = 0;       ///< Cycle the command actually began.
  util::Cycle ack = 0;         ///< Acknowledgement cycle (see Bank).
  util::Cycle completion = 0;  ///< Cycle the command finished.
  /// Internal row-buffer outcome (pre constant-time masking).
  RowBufferOutcome outcome = RowBufferOutcome::kEmpty;
  /// Policy the bank applied while executing this command.
  RowPolicy policy = RowPolicy::kOpenRow;
  /// Row-buffer state the command left behind.
  bool open_after = false;
  RowId open_row_after = 0;
};

/// Observer interface. Implementations must not call back into the bank.
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_command(const CommandRecord& record) = 0;
  /// The bank's `BankStats` were reset; stream-derived counters should be
  /// cleared so later reconciliation stays meaningful.
  virtual void on_stats_reset(BankId /*bank*/) {}
};

/// Ordered fan-out so several observers (the auto-attached ProtocolChecker,
/// the obs:: trace tap, a user observer) can share one bank-side slot.
///
/// The banks keep their single-pointer inline null-check fast path from
/// PR 2: the controller installs `nullptr` for zero observers, the sole
/// observer directly for one, and an ObserverList only when at least two
/// must coexist — so the fan-out's extra indirection is paid exactly when
/// multiple consumers asked for the stream.
class ObserverList final : public CommandObserver {
 public:
  void set_targets(std::vector<CommandObserver*> targets) {
    targets_ = std::move(targets);
  }
  [[nodiscard]] std::size_t size() const { return targets_.size(); }

  void on_command(const CommandRecord& record) override {
    for (CommandObserver* o : targets_) o->on_command(record);
  }
  void on_stats_reset(BankId bank) override {
    for (CommandObserver* o : targets_) o->on_stats_reset(bank);
  }

 private:
  std::vector<CommandObserver*> targets_;
};

}  // namespace impact::dram
