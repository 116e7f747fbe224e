#include "pim/pei.hpp"

#include "obs/scope.hpp"

namespace impact::pim {

PeiDispatcher::PeiDispatcher(PeiConfig config, sys::MemorySystem& system,
                             dram::ActorId actor)
    : config_(config),
      system_(&system),
      actor_(actor),
      pmu_(config.pmu),
      // Resolve the per-actor structures once. Eager context creation is
      // timing-invisible: contexts carry no clock state and are
      // independent of each other.
      tlb_(&system.tlb(actor)),
      mc_(&system.controller()),
      view_(system.vmem().view(actor)) {
  if (obs::Registry* reg = obs::current_registry()) {
    obs_ops_ = reg->counter("pim.pei.ops");
    obs_memory_side_ = reg->counter("pim.pei.memory_side");
    obs_host_side_ = reg->counter("pim.pei.host_side");
    obs_trace_ = obs::current_trace();
  }
}

// SIMLINT-HOT-BEGIN: per-access fast path — no allocation, no
// std::string, no by-name registry resolves (docs/static-analysis.md).
PeiResult PeiDispatcher::execute_one(sys::VAddr vaddr, util::Cycle& clock) {
  PeiResult r;
  // PEIs carry virtual addresses; translation happens on the host side
  // before dispatch (as in the PEI architecture).
  const auto tr = tlb_->translate(vaddr, view_.is_huge(vaddr));
  if (tr.walked) {
    system_->charge_walk_traffic(actor_, vaddr, /*walked=*/true, clock);
  }
  const dram::PhysAddr paddr = view_.translate(vaddr);
  util::Cycle latency = tr.latency + config_.pmu.lookup_latency;

  const std::uint64_t block = paddr / 64;
  r.placement = pmu_.decide(block);

  if (r.placement == PeiPlacement::kHost) {
    // Host-side PCU: a normal cached load plus the compute. No DRAM row is
    // touched when the line hits in the cache hierarchy.
    if (hier_ == nullptr) resolve_hierarchy();
    const auto mem = hier_->access(paddr, clock + latency);
    latency += mem.latency + config_.pcu_compute_latency;
    r.outcome = mem.dram_outcome;
    r.bank = mc_->mapping().decode(paddr).bank;
    if (mem.level != cache::HitLevel::kMemory) {
      // Mark that no bank state changed: callers treat a non-memory
      // outcome of a host-placed PEI as "no interference generated".
      r.outcome = dram::RowBufferOutcome::kHit;
    }
  } else {
    // Memory-side PCU: uncacheable request straight to the bank.
    latency += config_.offchip_issue_latency;
    const auto mem = mc_->access(paddr, clock + latency, actor_);
    latency += mem.latency + config_.pcu_compute_latency +
               config_.response_latency;
    r.outcome = mem.outcome;
    r.bank = mem.bank;
  }
  r.latency = latency;
  clock += latency;
  return r;
}

PeiResult PeiDispatcher::execute(sys::VAddr vaddr, util::Cycle& clock,
                                 PeiKind /*kind*/) {
  const PeiResult r = execute_one(vaddr, clock);
  if (obs_ops_) {
    obs_ops_.add();
    (r.placement == PeiPlacement::kHost ? obs_host_side_ : obs_memory_side_)
        .add();
  }
  if (obs_trace_ != nullptr) {
    obs_trace_->span("pim",
                     r.placement == PeiPlacement::kHost ? "pei-host"
                                                        : "pei-memory",
                     clock - r.latency, clock, actor_);
  }
  return r;
}

void PeiDispatcher::execute_batch(const sys::VAddr* vaddrs, std::size_t n,
                                  util::Cycle& clock, util::Cycle pre_cost,
                                  util::Cycle post_cost, PeiResult* results) {
  std::uint64_t host_side = 0;
  for (std::size_t i = 0; i < n; ++i) {
    clock += pre_cost;
    results[i] = execute_one(vaddrs[i], clock);
    if (obs_trace_ != nullptr) {
      // Per-op spans are part of the trace contract; only the null guard
      // and the counter updates are hoisted out of the loop.
      obs_trace_->span("pim",
                       results[i].placement == PeiPlacement::kHost
                           ? "pei-host"
                           : "pei-memory",
                       clock - results[i].latency, clock, actor_);
    }
    host_side +=
        static_cast<std::uint64_t>(results[i].placement == PeiPlacement::kHost);
    clock += post_cost;
  }
  if (obs_ops_ && n > 0) {
    obs_ops_.add(n);
    obs_host_side_.add(host_side);
    obs_memory_side_.add(n - host_side);
  }
}
// SIMLINT-HOT-END

void PeiDispatcher::resolve_hierarchy() {
  hier_ = &system_->hierarchy(actor_);
}

std::uint32_t PeiDispatcher::next_bypass_column(std::uint32_t row_bytes,
                                                std::uint32_t line_bytes) {
  const std::uint32_t blocks = row_bytes / line_bytes;
  const std::uint32_t col = (bypass_cursor_ % blocks) * line_bytes;
  ++bypass_cursor_;
  return col;
}

}  // namespace impact::pim
