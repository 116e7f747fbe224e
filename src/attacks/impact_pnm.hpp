// IMPACT-PnM: the PEI-based covert channel (§4.1).
//
// Sender and receiver each hold a PEI dispatcher. The sender transmits a 1
// by issuing a `pim_add` PEI against its row in the target bank (the PMU's
// ignore flag, exercised by rotating the targeted cache block within the
// row, keeps the operation memory-side); a 0 is a NOP. The receiver probes
// by timing a PEI against its own initialized row: a fast completion means
// the row was still open (0), a slow one means the sender displaced it (1).
#pragma once

#include "attacks/common.hpp"
#include "pim/pei.hpp"

namespace impact::attacks {

struct ImpactPnmConfig {
  RowChannelConfig channel{};
  pim::PeiConfig pei{};
};

class ImpactPnm final : public RowBufferChannelBase {
 public:
  explicit ImpactPnm(sys::MemorySystem& system, ImpactPnmConfig config = {});

  [[nodiscard]] std::string name() const override { return "IMPACT-PnM"; }

  [[nodiscard]] const pim::PeiDispatcher& sender_pei() const {
    return sender_pei_;
  }
  [[nodiscard]] const pim::PeiDispatcher& receiver_pei() const {
    return receiver_pei_;
  }

 protected:
  void send_bit(std::uint32_t bank, bool bit, util::Cycle& clock) override;
  double probe(std::uint32_t bank, util::Cycle& clock) override;

  // Batched kernels over PeiDispatcher::execute_batch; bit-identical to
  // the scalar hooks (PeiTest.ExecuteBatchMatchesScalarLoop in
  // tests/test_pim.cpp pins execute_batch against the scalar loop).
  void send_run(const std::uint32_t* banks, const std::uint8_t* bits,
                std::size_t count, util::Cycle& clock) override;
  void probe_run(const std::uint32_t* banks, std::size_t count,
                 util::Cycle& clock, double* latencies) override;

 private:
  /// Grows the run staging arrays to hold `count` ops (amortized; no
  /// allocation in steady state, where batch sizes repeat).
  void reserve_run(std::size_t count) {
    if (vaddr_scratch_.size() < count) {
      vaddr_scratch_.resize(count);
      pei_scratch_.resize(count);
    }
  }

  pim::PeiDispatcher sender_pei_;
  pim::PeiDispatcher receiver_pei_;
  std::vector<sys::VAddr> vaddr_scratch_;
  std::vector<pim::PeiResult> pei_scratch_;
};

}  // namespace impact::attacks
