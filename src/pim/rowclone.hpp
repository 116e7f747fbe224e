// User-level RowClone interface: the PuM execution path.
//
// A RowClone request names a source virtual range, a destination virtual
// range and a bank mask (§4.2). The memory controller breaks it into one
// in-subarray Fast-Parallel-Mode copy per set mask bit; all legs proceed in
// their banks concurrently, and (per the §5.1 threat model) the operation is
// atomic: no other DRAM command starts until every leg completes.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/controller.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sys/system.hpp"
#include "util/units.hpp"

namespace impact::pim {

struct RowCloneRequest {
  sys::VAddr src = 0;   ///< Base of the source range (row 0 of bank 0).
  sys::VAddr dst = 0;   ///< Base of the destination range.
  std::uint64_t mask = 0;  ///< Bit k set => copy the chunk in bank k.
};

struct RowCloneConfig {
  /// One command from core to controller, carrying ranges and mask.
  util::Cycle issue_latency = 8;
  /// Completion notification back to the core.
  util::Cycle response_latency = 4;
  /// When false (default), the instruction retires at the controller's
  /// acknowledgement (both activations issued); the analog copy finishes in
  /// the background while the bank stays busy. When true, the issuer blocks
  /// until every leg's copy completes.
  bool blocking = false;
};

class RowCloneUnit {
 public:
  RowCloneUnit(RowCloneConfig config, sys::MemorySystem& system,
               dram::ActorId actor);

  /// Executes the masked clone, advancing the actor clock to completion.
  /// The source/destination ranges are interpreted in row-buffer-sized
  /// chunks: chunk k of each range must translate to the same bank (which
  /// `VirtualMemory::map_row_span` guarantees).
  dram::RowCloneResult execute(const RowCloneRequest& request,
                               util::Cycle& clock, bool atomic = true) {
    dram::RowCloneResult out;
    execute_into(request, clock, atomic, out);
    return out;
  }

  /// Allocation-free variant: refills `out` (reusing its legs capacity).
  /// The PuM covert channel issues one clone per probe, so its inner loop
  /// keeps one result object alive across the whole message.
  void execute_into(const RowCloneRequest& request, util::Cycle& clock,
                    bool atomic, dram::RowCloneResult& out);

  /// Bulk initialization: clones a source row over the destination in every
  /// bank of `mask` (RowClone-based memset, §4.2 Step 1).
  dram::RowCloneResult initialize(const RowCloneRequest& request,
                                  util::Cycle& clock) {
    return execute(request, clock);
  }

 private:
  RowCloneConfig config_;
  sys::MemorySystem* system_;
  dram::ActorId actor_;
  sys::VirtualMemory::TranslationView view_;  ///< `actor_`'s page table.
  std::vector<dram::RowCloneLeg> legs_scratch_;  ///< Reused across calls.
  // obs:: handles resolved once at construction; null outside a Scope.
  obs::Counter obs_ops_;
  obs::Counter obs_legs_;
  obs::Distribution obs_occupancy_;  ///< Banks addressed per masked clone.
  obs::TraceSession* obs_trace_ = nullptr;
};

}  // namespace impact::pim
