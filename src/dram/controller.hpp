// The memory controller: command scheduling, row policies, partitioning,
// masked multi-bank RowClone.
//
// This is the single point through which every memory request in the
// simulator reaches DRAM — CPU cache misses, PEI operations executed by
// near-bank compute units, DMA transfers, and RowClone commands. It applies
// the configured row-buffer policy (open / closed / constant-time), enforces
// optional bank-level partitioning (the MPR defense), and fans masked
// RowClone requests out to the addressed banks in parallel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dram/address_mapping.hpp"
#include "dram/bank.hpp"
#include "dram/config.hpp"
#include "dram/data_array.hpp"
#include "dram/observer.hpp"
#include "dram/types.hpp"
#include "obs/registry.hpp"
#include "util/units.hpp"

namespace impact::check {
class ProtocolChecker;
}  // namespace impact::check

namespace impact::fault {
class Injector;
}  // namespace impact::fault

namespace impact::obs {
class DramTap;
}  // namespace impact::obs

namespace impact::dram {

/// Identifies a simulated security principal (process) for partitioning.
using ActorId = std::uint32_t;
inline constexpr ActorId kAnyActor = 0xFFFFFFFFu;

/// One memory access as observed by its issuer.
struct AccessResult {
  util::Cycle latency = 0;     ///< Issue -> data, incl. queuing delay.
  util::Cycle completion = 0;  ///< Absolute completion cycle.
  util::Cycle ack = 0;         ///< Command acknowledgement (see Bank).
  RowBufferOutcome outcome = RowBufferOutcome::kEmpty;
  BankId bank = 0;
};

/// One bank-level leg of a (possibly multi-bank) RowClone.
struct RowCloneLeg {
  BankId bank = 0;
  RowId src = 0;
  RowId dst = 0;
};

/// Result of a masked RowClone request.
struct RowCloneResult {
  util::Cycle latency = 0;      ///< Issue -> all legs complete.
  util::Cycle completion = 0;   ///< Absolute completion cycle (max legs).
  util::Cycle ack_latency = 0;  ///< Issue -> all legs acknowledged (the
                                ///< non-blocking retirement point).
  std::vector<AccessResult> legs;
};

class MemoryController {
 public:
  MemoryController(DramConfig config,
                   MappingScheme scheme = MappingScheme::kBankInterleaved);
  /// Reconciles BankStats against the observed command stream when the
  /// auto-attached protocol checker is active (see set_observer), and
  /// flushes the `dram.*` obs providers into their scope's registry.
  ~MemoryController();
  MemoryController(MemoryController&&) = delete;
  MemoryController& operator=(MemoryController&&) = delete;

  [[nodiscard]] const DramConfig& config() const { return config_; }
  [[nodiscard]] const AddressMapping& mapping() const { return mapping_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }

  /// Fixed on-chip cost of getting a request into the per-bank queue
  /// (command/address bus, controller pipeline).
  [[nodiscard]] util::Cycle issue_overhead() const { return issue_overhead_; }
  void set_issue_overhead(util::Cycle c) { issue_overhead_ = c; }

  /// Performs a normal read/write-class access at `now`.
  AccessResult access(PhysAddr addr, util::Cycle now,
                      ActorId actor = kAnyActor);

  /// Direct bank/row access (used by PiM units that address banks natively).
  AccessResult access_row(BankId bank, RowId row, util::Cycle now,
                          ActorId actor = kAnyActor);

  /// Executes a masked RowClone: each leg runs in its bank concurrently.
  /// When `atomic` is true (the paper's §5.1 threat-model guarantee) no
  /// other DRAM command may start on *any* bank until all legs complete.
  RowCloneResult rowclone(std::span<const RowCloneLeg> legs, util::Cycle now,
                          bool atomic = true, ActorId actor = kAnyActor) {
    RowCloneResult out;
    rowclone_into(legs, now, atomic, actor, out);
    return out;
  }

  /// Allocation-free variant for hot channel loops (one RowClone per
  /// transmitted chunk): clears and refills `out`, reusing `out.legs`'
  /// capacity across calls.
  void rowclone_into(std::span<const RowCloneLeg> legs, util::Cycle now,
                     bool atomic, ActorId actor, RowCloneResult& out);

  /// Row currently open in `bank` as of `now` (nullopt if precharged).
  [[nodiscard]] std::optional<RowId> open_row(BankId bank, util::Cycle now);

  /// Closes the row buffer of `bank`.
  void precharge(BankId bank, util::Cycle now);

  /// Switches the row policy on all banks (defense configuration).
  void set_policy(RowPolicy policy);
  [[nodiscard]] RowPolicy policy() const { return config_.policy; }

  // --- Bank partitioning (MPR defense) -------------------------------
  /// Assigns `bank` exclusively to `owner`; kAnyActor removes the claim.
  void set_partition_owner(BankId bank, ActorId owner);
  /// True when `actor` may touch `bank` under the current partitioning.
  [[nodiscard]] bool can_access(BankId bank, ActorId actor) const;
  /// Number of accesses rejected by partitioning so far.
  [[nodiscard]] std::uint64_t partition_faults() const {
    return partition_faults_;
  }

  // --- Introspection ---------------------------------------------------
  [[nodiscard]] std::uint32_t banks() const {
    return static_cast<std::uint32_t>(banks_.size());
  }
  [[nodiscard]] const BankStats& bank_stats(BankId bank) const;
  [[nodiscard]] BankStats total_stats() const;
  void reset_stats();

  /// Value-level storage (never null; empty until something is written).
  [[nodiscard]] DataArray* data() { return &data_; }

  // --- Command-stream observation --------------------------------------
  // Constructed inside an obs::Scope, the controller publishes the summed
  // BankStats as snapshot-time providers: `dram.{hits,empties,conflicts,
  // activations,rowclones,precharges}` and `dram.commands` (accesses +
  // rowclones + precharges). Counting needs no observer.
  //
  // The constructor auto-attaches up to two internal observers: a
  // `check::ProtocolChecker` in abort-on-violation mode when
  // `ProtocolChecker::env_enabled()` says so (IMPACT_CHECK=1, or a debug
  // build with IMPACT_CHECK unset), and an `obs::DramTap` when a trace
  // session is open, which draws one span per command. Internal and
  // external observers coexist through an ordered fan-out; the banks still
  // see a single pointer (nullptr / sole observer / the fan-out),
  // preserving the inline null-check fast path.

  /// Legacy single-slot attachment: *replaces* the auto-attached protocol
  /// checker and every previously attached external observer with
  /// `observer` (nullptr detaches all externals). Kept for tests that pin
  /// exclusive observation; new code should prefer add_observer.
  void set_observer(CommandObserver* observer);
  /// Appends `observer` to the fan-out (no-op when already attached or
  /// nullptr). Internal observers keep running — attaching a tracer no
  /// longer silently replaces the checker.
  void add_observer(CommandObserver* observer);
  /// Detaches one external observer (no-op when not attached).
  void remove_observer(CommandObserver* observer);
  /// The auto-attached checker, or nullptr when disabled/replaced.
  [[nodiscard]] check::ProtocolChecker* checker() { return checker_.get(); }
  /// The auto-attached trace tap, or nullptr outside a trace session.
  [[nodiscard]] obs::DramTap* obs_tap() { return tap_.get(); }

  // --- Fault injection --------------------------------------------------
  /// Attaches a fault injector (nullptr detaches; non-owning — usually set
  /// through sys::MemorySystem::set_fault_injector). When attached, the
  /// access path consults it for refresh storms and latency jitter, and the
  /// RowClone path for dropped legs. The detached configuration pays one
  /// predictable branch per access, keeping fault-free runs bit-identical
  /// to an injector-free build.
  void set_fault_injector(fault::Injector* injector) { faults_ = injector; }
  [[nodiscard]] fault::Injector* fault_injector() { return faults_; }

 private:
  /// Flat bank lookup on the per-access path: one range check (no message
  /// materialization on success) and a direct index.
  Bank& bank_for(BankId id) {
    util::check(id < banks_.size(), "MemoryController: bank out of range");
    return banks_[id];
  }
  /// Returns true (and counts a fault) if partitioning rejects the access.
  /// The unpartitioned configuration (every bench and covert-channel run)
  /// short-circuits before touching the owner table.
  bool partition_rejects(BankId bank, ActorId actor) {
    if (!partitioned_) return false;
    if (can_access(bank, actor)) return false;
    ++partition_faults_;
    return true;
  }

  DramConfig config_;
  AddressMapping mapping_;
  Timing timing_;
  util::Cycle issue_overhead_ = 4;
  std::vector<Bank> banks_;
  std::vector<ActorId> owners_;
  bool partitioned_ = false;  ///< Any bank currently has an exclusive owner.
  std::uint64_t partition_faults_ = 0;
  DataArray data_;
  std::unique_ptr<check::ProtocolChecker> checker_;
  std::unique_ptr<obs::DramTap> tap_;
  obs::Registry* obs_registry_ = nullptr;
  std::vector<obs::ProviderId> obs_providers_;
  std::vector<CommandObserver*> external_observers_;
  ObserverList fanout_;
  fault::Injector* faults_ = nullptr;

  /// Re-derives the per-bank observer pointer from (checker, tap,
  /// externals): nullptr when none, the observer itself when exactly one,
  /// the fan-out otherwise.
  void rewire_observers();
};

}  // namespace impact::dram
