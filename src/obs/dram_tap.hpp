// Bridges the dram:: observer seam into an obs::TraceSession.
//
// A DramTap is a CommandObserver that draws one span per bank command on
// the bank's track, and an instant when a bank's stats are reset. It
// counts nothing: the `dram.*` counters come from BankStats, which
// MemoryController publishes as snapshot-time providers.
//
// MemoryController auto-attaches a tap when it is constructed while a
// trace session is open; the multi-observer fan-out keeps it coexisting
// with the auto-attached ProtocolChecker and any user observer.
#pragma once

#include "dram/observer.hpp"
#include "obs/trace.hpp"

namespace impact::obs {

class DramTap final : public dram::CommandObserver {
 public:
  explicit DramTap(TraceSession& trace) : trace_(&trace) {}

  void on_command(const dram::CommandRecord& record) override;
  void on_stats_reset(dram::BankId bank) override;

 private:
  TraceSession* trace_;
};

}  // namespace impact::obs
