#include "dram/controller.hpp"

#include <algorithm>

#include "check/protocol_checker.hpp"
#include "fault/injector.hpp"
#include "obs/dram_tap.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::dram {

MemoryController::MemoryController(DramConfig config, MappingScheme scheme)
    : config_(config),
      mapping_(config, scheme),
      timing_(config.derived_timing()),
      data_(config_) {
  config_.validate();
  banks_.reserve(config_.total_banks());
  for (std::uint32_t i = 0; i < config_.total_banks(); ++i) {
    banks_.emplace_back(timing_, config_.policy);
  }
  owners_.assign(config_.total_banks(), kAnyActor);
  if (check::ProtocolChecker::env_enabled()) {
    checker_ = std::make_unique<check::ProtocolChecker>(
        timing_, check::FailMode::kAbort);
  }
  // Constructed inside an obs::Scope: publish the summed BankStats as
  // snapshot-time providers, as cache::Hierarchy and sys::Tlb do, so
  // counting costs nothing per command. Only a trace session attaches the
  // tap, which draws one span per command. Outside a scope — every
  // microbench — this folds to nothing.
  if (obs::Registry* reg = obs::current_registry()) {
    obs_registry_ = reg;
    const struct {
      const char* name;
      std::uint64_t BankStats::*field;
    } fields[] = {{"dram.hits", &BankStats::hits},
                  {"dram.empties", &BankStats::empties},
                  {"dram.conflicts", &BankStats::conflicts},
                  {"dram.activations", &BankStats::activations},
                  {"dram.rowclones", &BankStats::rowclones},
                  {"dram.precharges", &BankStats::precharges}};
    for (const auto& f : fields) {
      obs_providers_.push_back(reg->add_provider(
          f.name, [this, field = f.field] { return total_stats().*field; }));
    }
    obs_providers_.push_back(reg->add_provider("dram.commands", [this] {
      const BankStats s = total_stats();
      return s.accesses() + s.rowclones + s.precharges;
    }));
  }
  if (obs::TraceSession* trace = obs::current_trace()) {
    tap_ = std::make_unique<obs::DramTap>(*trace);
  }
  rewire_observers();
}

MemoryController::~MemoryController() {
  // A stats/stream divergence is a simulator bug even if no per-command
  // rule fired; in abort mode reconcile_stats() reports and aborts.
  if (checker_) {
    for (BankId i = 0; i < banks_.size(); ++i) {
      checker_->reconcile_stats(i, banks_[i].stats());
    }
  }
  if (obs_registry_ != nullptr) {
    for (const obs::ProviderId id : obs_providers_) {
      obs_registry_->flush_provider(id);
    }
  }
}

void MemoryController::set_observer(CommandObserver* observer) {
  checker_.reset();
  external_observers_.clear();
  if (observer != nullptr) external_observers_.push_back(observer);
  rewire_observers();
}

void MemoryController::add_observer(CommandObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(external_observers_.begin(), external_observers_.end(),
                observer) != external_observers_.end()) {
    return;
  }
  external_observers_.push_back(observer);
  rewire_observers();
}

void MemoryController::remove_observer(CommandObserver* observer) {
  const auto it = std::find(external_observers_.begin(),
                            external_observers_.end(), observer);
  if (it == external_observers_.end()) return;
  external_observers_.erase(it);
  rewire_observers();
}

void MemoryController::rewire_observers() {
  // Order matters: the checker validates the stream before anything else
  // consumes it, the tap draws it, externals see it last.
  std::vector<CommandObserver*> targets;
  if (checker_) targets.push_back(checker_.get());
  if (tap_) targets.push_back(tap_.get());
  targets.insert(targets.end(), external_observers_.begin(),
                 external_observers_.end());
  CommandObserver* effective = nullptr;
  if (targets.size() == 1) {
    effective = targets.front();
  } else if (targets.size() > 1) {
    fanout_.set_targets(std::move(targets));
    effective = &fanout_;
  }
  for (BankId i = 0; i < banks_.size(); ++i) {
    banks_[i].set_observer(effective, i);
  }
}

// SIMLINT-HOT-BEGIN: per-access fast path — no allocation, no
// std::string, no by-name registry resolves (docs/static-analysis.md).
AccessResult MemoryController::access(PhysAddr addr, util::Cycle now,
                                      ActorId actor) {
  const DramAddress loc = mapping_.decode(addr);
  return access_row(loc.bank, loc.row, now, actor);
}

AccessResult MemoryController::access_row(BankId bank, RowId row,
                                          util::Cycle now, ActorId actor) {
  util::check(!partition_rejects(bank, actor),
              "MemoryController: bank partition violation");
  const util::Cycle issued = now;
  const util::Cycle at_bank = now + issue_overhead_;
  if (faults_ != nullptr && faults_->refresh_storm(at_bank)) {
    // A refresh burst hits the bank just before the access: the row buffer
    // is precharged, turning would-be hits into empty activations (and
    // destroying the row-buffer state covert channels signal through).
    bank_for(bank).precharge(at_bank);
  }
  const BankAccessResult r = bank_for(bank).access(row, at_bank);
  AccessResult out;
  out.bank = bank;
  out.outcome = r.outcome;
  out.completion = r.completion;
  out.ack = r.ack;
  out.latency = r.completion - issued;
  if (faults_ != nullptr) {
    // Controller/bus-side jitter (ECC retries, command-bus contention):
    // the issuer observes extra latency; the bank's own timing state is
    // untouched, so the protocol checker's invariants still hold.
    const util::Cycle jitter = faults_->access_jitter(at_bank);
    out.latency += jitter;
    out.completion += jitter;
    out.ack += jitter;
  }
  return out;
}

void MemoryController::rowclone_into(std::span<const RowCloneLeg> legs,
                                     util::Cycle now, bool atomic,
                                     ActorId actor, RowCloneResult& out) {
  util::check(!legs.empty(), "MemoryController::rowclone: no legs");
  for (const auto& leg : legs) {
    util::check(!partition_rejects(leg.bank, actor),
                "MemoryController: rowclone partition violation");
    util::check(leg.src / config_.subarray_rows ==
                    leg.dst / config_.subarray_rows,
                "RowClone FPM requires src and dst in the same subarray");
  }
  const util::Cycle issued = now;
  const util::Cycle at_bank = now + issue_overhead_;
  out.legs.clear();
  out.legs.reserve(legs.size());
  util::Cycle max_completion = 0;
  util::Cycle max_ack = 0;
  for (const auto& leg : legs) {
    if (faults_ != nullptr && faults_->drop_rowclone_leg(at_bank)) {
      // The leg silently fails: no activations reach the bank, the data is
      // not copied, and the destination row buffer stays undisturbed — the
      // RowClone-level bit flip of the PuM channel. The leg still reports
      // an (instant) acknowledgement, as a real controller would.
      AccessResult a;
      a.bank = leg.bank;
      a.outcome = RowBufferOutcome::kEmpty;
      a.completion = at_bank;
      a.ack = at_bank;
      a.latency = at_bank - issued;
      max_completion = std::max(max_completion, a.completion);
      max_ack = std::max(max_ack, a.ack);
      out.legs.push_back(a);
      continue;
    }
    const BankAccessResult r = bank_for(leg.bank).rowclone(leg.src, leg.dst,
                                                           at_bank);
    data_.clone_row(leg.bank, leg.src, leg.dst);
    AccessResult a;
    a.bank = leg.bank;
    a.outcome = r.outcome;
    a.completion = r.completion;
    a.ack = r.ack;
    a.latency = r.completion - issued;
    max_completion = std::max(max_completion, r.completion);
    max_ack = std::max(max_ack, r.ack);
    out.legs.push_back(a);
  }
  out.completion = max_completion;
  out.latency = max_completion - issued;
  out.ack_latency = max_ack - issued;
  if (atomic) {
    // The §5.1 threat-model guarantee: no other DRAM command starts on any
    // bank until every leg of this RowClone has completed.
    for (auto& b : banks_) b.stall_until(max_completion);
  }
}
// SIMLINT-HOT-END

std::optional<RowId> MemoryController::open_row(BankId bank, util::Cycle now) {
  return bank_for(bank).open_row(now);
}

void MemoryController::precharge(BankId bank, util::Cycle now) {
  bank_for(bank).precharge(now + issue_overhead_);
}

void MemoryController::set_policy(RowPolicy policy) {
  config_.policy = policy;
  for (auto& b : banks_) b.set_policy(policy);
}

void MemoryController::set_partition_owner(BankId bank, ActorId owner) {
  util::check(bank < owners_.size(),
              "MemoryController::set_partition_owner: bank out of range");
  owners_[bank] = owner;
  partitioned_ = false;
  for (const ActorId o : owners_) {
    if (o != kAnyActor) {
      partitioned_ = true;
      break;
    }
  }
}

bool MemoryController::can_access(BankId bank, ActorId actor) const {
  util::check(bank < owners_.size(),
              "MemoryController::can_access: bank out of range");
  const ActorId owner = owners_[bank];
  return owner == kAnyActor || actor == kAnyActor || owner == actor;
}

const BankStats& MemoryController::bank_stats(BankId bank) const {
  util::check(bank < banks_.size(),
              "MemoryController::bank_stats: bank out of range");
  return banks_[bank].stats();
}

BankStats MemoryController::total_stats() const {
  BankStats total;
  for (const auto& b : banks_) total += b.stats();
  return total;
}

void MemoryController::reset_stats() {
  for (auto& b : banks_) b.reset_stats();
  partition_faults_ = 0;
}

}  // namespace impact::dram
