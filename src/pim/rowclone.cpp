#include "pim/rowclone.hpp"

#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::pim {

RowCloneUnit::RowCloneUnit(RowCloneConfig config, sys::MemorySystem& system,
                           dram::ActorId actor)
    : config_(config), system_(&system), actor_(actor),
      view_(system.vmem().view(actor)) {
  if (obs::Registry* reg = obs::current_registry()) {
    obs_ops_ = reg->counter("pim.rowclone.ops");
    obs_legs_ = reg->counter("pim.rowclone.legs");
    // Masked-bank occupancy: how many banks each clone touched (1..64).
    obs_occupancy_ = reg->distribution("pim.rowclone.mask_banks", 0.0, 65.0,
                                       65);
    obs_trace_ = obs::current_trace();
  }
}

// SIMLINT-HOT-BEGIN: per-access fast path — no allocation, no
// std::string, no by-name registry resolves (docs/static-analysis.md).
void RowCloneUnit::execute_into(const RowCloneRequest& request,
                                util::Cycle& clock, bool atomic,
                                dram::RowCloneResult& out) {
  util::check(request.mask != 0, "RowCloneUnit: empty bank mask");
  const auto& mapping = system_->controller().mapping();
  const std::uint64_t row_bytes = mapping.row_bytes();

  std::vector<dram::RowCloneLeg>& legs = legs_scratch_;
  legs.clear();
  for (std::uint32_t k = 0; k < 64; ++k) {
    if (((request.mask >> k) & 1ull) == 0) continue;
    const sys::VAddr src_chunk = request.src + k * row_bytes;
    const sys::VAddr dst_chunk = request.dst + k * row_bytes;
    const auto src_loc = mapping.decode(view_.translate(src_chunk));
    const auto dst_loc = mapping.decode(view_.translate(dst_chunk));
    util::check(src_loc.bank == dst_loc.bank,
                "RowCloneUnit: chunk k of src and dst map to different banks");
    util::check(src_loc.col == 0 && dst_loc.col == 0,
                "RowCloneUnit: ranges must be row-aligned");
    legs.push_back(dram::RowCloneLeg{src_loc.bank, src_loc.row, dst_loc.row});
  }
  util::check(!legs.empty(), "RowCloneUnit: mask selects no mapped chunk");

  system_->controller().rowclone_into(legs, clock + config_.issue_latency,
                                      atomic, actor_, out);
  const util::Cycle core_wait =
      config_.blocking ? out.latency : out.ack_latency;
  // `latency` reports what the issuing core observed (and what a timing
  // attacker can measure); `completion` still records when the copy is done.
  out.latency = core_wait + config_.issue_latency + config_.response_latency;
  clock += out.latency;
  if (obs_ops_) {
    obs_ops_.add();
    obs_legs_.add(legs.size());
    obs_occupancy_.add(static_cast<double>(legs.size()));
  }
  if (obs_trace_ != nullptr) {
    obs_trace_->span("pim", "rowclone", clock - out.latency, clock, actor_);
  }
}
// SIMLINT-HOT-END

}  // namespace impact::pim
