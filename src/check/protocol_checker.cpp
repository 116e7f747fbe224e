#include "check/protocol_checker.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace impact::check {

namespace {

using dram::CommandKind;
using dram::CommandRecord;
using dram::RowBufferOutcome;
using dram::RowPolicy;

std::string format_record(const CommandRecord& r) {
  char buf[256];
  char open[32];
  if (r.open_after) {
    std::snprintf(open, sizeof open, "open=%u", r.open_row_after);
  } else {
    std::snprintf(open, sizeof open, "closed");
  }
  if (r.kind == CommandKind::kRowClone) {
    std::snprintf(buf, sizeof buf,
                  "  %-9s bank=%u src=%u dst=%u issue=%llu start=%llu "
                  "ack=%llu comp=%llu %s %s %s",
                  to_string(r.kind), r.bank, r.src_row, r.row,
                  static_cast<unsigned long long>(r.issue),
                  static_cast<unsigned long long>(r.start),
                  static_cast<unsigned long long>(r.ack),
                  static_cast<unsigned long long>(r.completion),
                  to_string(r.outcome), to_string(r.policy), open);
  } else {
    std::snprintf(buf, sizeof buf,
                  "  %-9s bank=%u row=%u issue=%llu start=%llu ack=%llu "
                  "comp=%llu %s %s %s",
                  to_string(r.kind), r.bank, r.row,
                  static_cast<unsigned long long>(r.issue),
                  static_cast<unsigned long long>(r.start),
                  static_cast<unsigned long long>(r.ack),
                  static_cast<unsigned long long>(r.completion),
                  to_string(r.outcome), to_string(r.policy), open);
  }
  return buf;
}

std::string cycles_msg(const char* what, util::Cycle got, util::Cycle bound) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: got cycle %llu, bound %llu", what,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(bound));
  return buf;
}

}  // namespace

std::string Violation::report() const {
  std::string out = "protocol violation [" + rule + "] on bank " +
                    std::to_string(bank) + ": " + message;
  if (!trace.empty()) {
    out += "\nrecent commands (oldest first):\n" + trace;
  }
  return out;
}

ProtocolChecker::ProtocolChecker(const dram::Timing& timing, FailMode mode,
                                 std::size_t trace_depth)
    : timing_(timing), mode_(mode), trace_depth_(trace_depth) {}

bool ProtocolChecker::env_enabled() {
  const char* v = std::getenv("IMPACT_CHECK");
  if (v != nullptr && *v != '\0') {
    return std::strcmp(v, "0") != 0;
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

ProtocolChecker::BankState& ProtocolChecker::state_for(dram::BankId bank) {
  if (bank >= states_.size()) states_.resize(bank + 1);
  return states_[bank];
}

std::string ProtocolChecker::trace(dram::BankId bank) const {
  if (bank >= states_.size()) return {};
  const BankState& s = states_[bank];
  std::string out;
  // Ring order: ring_next points at the oldest entry once the buffer wraps.
  const std::size_t n = s.ring.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = s.ring.size() < trace_depth_
                                ? i
                                : (s.ring_next + i) % n;
    out += format_record(s.ring[idx]);
    out += '\n';
  }
  return out;
}

void ProtocolChecker::clear() {
  states_.clear();
  violations_.clear();
  commands_checked_ = 0;
}

void ProtocolChecker::record_violation(dram::BankId bank, const char* rule,
                                       std::string message) {
  Violation v;
  v.bank = bank;
  v.rule = rule;
  v.message = std::move(message);
  v.trace = trace(bank);
  if (mode_ == FailMode::kAbort) {
    std::fprintf(stderr, "IMPACT_CHECK: %s\n", v.report().c_str());
    std::abort();
  }
  violations_.push_back(std::move(v));
}

void ProtocolChecker::check_timing(const CommandRecord& r,
                                   const BankState& s) {
  if (s.seen && r.start < s.last_start) {
    record_violation(r.bank, "monotonic-start",
                     cycles_msg("command start precedes previous start",
                                r.start, s.last_start));
  }
  if (r.start < r.issue) {
    record_violation(r.bank, "time-travel",
                     cycles_msg("command starts before it was issued",
                                r.start, r.issue));
  }
  if (r.ack < r.start) {
    record_violation(r.bank, "time-travel",
                     cycles_msg("ack precedes command start", r.ack,
                                r.start));
  }
  if (r.completion < r.start) {
    record_violation(r.bank, "time-travel",
                     cycles_msg("completion precedes command start",
                                r.completion, r.start));
  }
  if (r.ack > r.completion) {
    record_violation(r.bank, "ack-after-completion",
                     cycles_msg("command acknowledged after completion",
                                r.ack, r.completion));
  }

  // Minimum-latency / ordering constraints. The constant-time policy pads
  // to a fixed equation instead; it also skips tRAS bookkeeping, so the
  // generic bounds do not apply.
  if (r.policy == RowPolicy::kConstantTime) {
    if (r.kind == CommandKind::kAccess &&
        r.completion != r.start + timing_.conflict_latency()) {
      record_violation(
          r.bank, "ct-latency",
          cycles_msg("constant-time access must pad to worst case",
                     r.completion, r.start + timing_.conflict_latency()));
    }
    if (r.kind == CommandKind::kRowClone &&
        r.completion != r.start + timing_.trp + timing_.rowclone_fpm) {
      record_violation(
          r.bank, "ct-latency",
          cycles_msg("constant-time rowclone must pad to worst case",
                     r.completion,
                     r.start + timing_.trp + timing_.rowclone_fpm));
    }
    return;
  }

  switch (r.kind) {
    case CommandKind::kAccess: {
      util::Cycle bound = r.start;
      switch (r.outcome) {
        case RowBufferOutcome::kHit:
          bound += timing_.hit_latency();
          break;
        case RowBufferOutcome::kEmpty:
          bound += timing_.empty_latency();
          break;
        case RowBufferOutcome::kConflict:
          // The PRE may not begin before tRAS of the previous ACT.
          bound = std::max(r.start, s.last_activate + timing_.tras) +
                  timing_.conflict_latency();
          break;
      }
      if (r.completion < bound) {
        record_violation(r.bank, "min-latency",
                         cycles_msg("access completes faster than "
                                    "tRCD/tRP/tCAS ordering allows",
                                    r.completion, bound));
      }
      break;
    }
    case CommandKind::kRowClone: {
      util::Cycle bound = r.start;
      switch (r.outcome) {
        case RowBufferOutcome::kHit:
          bound += timing_.tras;  // Only the dst charge-restore remains.
          break;
        case RowBufferOutcome::kEmpty:
          bound += timing_.rowclone_fpm;
          break;
        case RowBufferOutcome::kConflict:
          bound = std::max(r.start, s.last_activate + timing_.tras) +
                  timing_.trp + timing_.rowclone_fpm;
          break;
      }
      if (r.completion < bound) {
        record_violation(r.bank, "min-latency",
                         cycles_msg("rowclone completes faster than the "
                                    "FPM sequence allows",
                                    r.completion, bound));
      }
      if (r.ack < r.start + timing_.trcd) {
        record_violation(r.bank, "min-latency",
                         cycles_msg("rowclone acknowledged before the "
                                    "ACT-to-ACT gap",
                                    r.ack, r.start + timing_.trcd));
      }
      break;
    }
    case CommandKind::kPrecharge:
      if (r.completion < r.start + timing_.trp) {
        record_violation(r.bank, "min-latency",
                         cycles_msg("precharge shorter than tRP",
                                    r.completion, r.start + timing_.trp));
      }
      break;
  }
}

void ProtocolChecker::check_row_state(const CommandRecord& r,
                                      const BankState& s) {
  if (r.kind == CommandKind::kPrecharge) return;
  // For RowClone the outcome classifies the *source* row.
  const dram::RowId target =
      r.kind == CommandKind::kRowClone ? r.src_row : r.row;
  switch (r.outcome) {
    case RowBufferOutcome::kHit:
      // Empty->Hit is illegal: a hit requires this very row to have been
      // left open by a prior activation. (Asynchronous refresh/timeout
      // closures can only turn a would-be hit into an Empty, never the
      // reverse.)
      if (!s.open || s.open_row != target) {
        record_violation(
            r.bank, "row-state",
            s.open ? "hit on row " + std::to_string(target) +
                         " but row " + std::to_string(s.open_row) +
                         " was open"
                   : "hit on row " + std::to_string(target) +
                         " without a prior activation (row buffer closed)");
      }
      break;
    case RowBufferOutcome::kEmpty:
      // Always legal: refresh or the idle timeout may close a row between
      // any two commands without an observable event.
      break;
    case RowBufferOutcome::kConflict:
      // A conflict implies PRE+ACT, i.e. a *different* row really open.
      if (!s.open) {
        record_violation(r.bank, "row-state",
                         "conflict on row " + std::to_string(target) +
                             " with the row buffer closed");
      } else if (s.open_row == target) {
        record_violation(r.bank, "row-state",
                         "conflict on row " + std::to_string(target) +
                             " against itself (should be a hit)");
      }
      break;
  }
}

void ProtocolChecker::apply(const CommandRecord& r, BankState& s) {
  s.seen = true;
  s.last_start = r.start;
  switch (r.kind) {
    case CommandKind::kAccess:
      switch (r.outcome) {
        case RowBufferOutcome::kHit:
          ++s.derived.hits;
          break;
        case RowBufferOutcome::kEmpty:
          ++s.derived.empties;
          ++s.derived.activations;
          break;
        case RowBufferOutcome::kConflict:
          ++s.derived.conflicts;
          ++s.derived.activations;
          break;
      }
      if (r.policy == RowPolicy::kConstantTime) {
        // CT counts one activation per access regardless of outcome (and
        // the non-CT hit path above counted none).
        if (r.outcome == RowBufferOutcome::kHit) ++s.derived.activations;
      } else if (r.outcome == RowBufferOutcome::kEmpty) {
        s.last_activate = r.start;
      } else if (r.outcome == RowBufferOutcome::kConflict) {
        // The conflict ACT happened tRCD+tCAS+tBL before completion.
        s.last_activate = r.completion - timing_.empty_latency();
      }
      break;
    case CommandKind::kRowClone:
      ++s.derived.rowclones;
      s.derived.activations += 2;
      if (r.policy != RowPolicy::kConstantTime) s.last_activate = r.start;
      break;
    case CommandKind::kPrecharge:
      ++s.derived.precharges;
      break;
  }
  s.open = r.open_after;
  s.open_row = r.open_row_after;
}

void ProtocolChecker::on_command(const CommandRecord& record) {
  ++commands_checked_;
  BankState& s = state_for(record.bank);
  // Append to the ring first so a violation's trace ends with the
  // offending command itself.
  if (s.ring.size() < trace_depth_) {
    s.ring.push_back(record);
    s.ring_next = s.ring.size() % trace_depth_;
  } else {
    s.ring[s.ring_next] = record;
    s.ring_next = (s.ring_next + 1) % trace_depth_;
  }
  check_timing(record, s);
  check_row_state(record, s);
  apply(record, s);
}

void ProtocolChecker::on_stats_reset(dram::BankId bank) {
  state_for(bank).derived = dram::BankStats{};
}

void ProtocolChecker::reconcile_stats(dram::BankId bank,
                                      const dram::BankStats& stats) {
  const dram::BankStats& d = state_for(bank).derived;
  const auto mismatch = [&](const char* name, std::uint64_t got,
                            std::uint64_t want) {
    if (got == want) return;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "BankStats.%s = %llu but the command stream implies %llu",
                  name, static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    record_violation(bank, "stats-mismatch", buf);
  };
  mismatch("hits", stats.hits, d.hits);
  mismatch("empties", stats.empties, d.empties);
  mismatch("conflicts", stats.conflicts, d.conflicts);
  mismatch("activations", stats.activations, d.activations);
  mismatch("rowclones", stats.rowclones, d.rowclones);
  mismatch("precharges", stats.precharges, d.precharges);
}

}  // namespace impact::check
