#include "obs/dram_tap.hpp"

namespace impact::obs {

void DramTap::on_command(const dram::CommandRecord& record) {
  trace_->span("dram", dram::to_string(record.kind), record.start,
               record.completion, record.bank);
}

void DramTap::on_stats_reset(dram::BankId bank) {
  trace_->instant("dram", "stats-reset", 0, bank);
}

}  // namespace impact::obs
