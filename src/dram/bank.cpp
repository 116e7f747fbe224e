#include "dram/bank.hpp"

#include <algorithm>

namespace impact::dram {

std::optional<RowId> Bank::open_row(util::Cycle now) {
  // All-bank auto-refresh: at every tREFI boundary the row buffer is
  // precharged and the bank is busy for tRFC. `now >= next_refresh_at_`
  // is exactly `now / trefi > refresh_epoch_`; the cached boundary keeps
  // the division off the no-crossing fast path (trefi == 0 parks the
  // boundary at kNoRefresh, so the branch also covers refresh-disabled).
  if (now >= next_refresh_at_) {
    const util::Cycle epoch = now / timing_->trefi;
    refresh_epoch_ = epoch;
    const util::Cycle refresh_start = epoch * timing_->trefi;
    ready_at_ = std::max(ready_at_, refresh_start + timing_->trfc);
    open_row_.reset();
    next_refresh_at_ = (epoch + 1) * timing_->trefi;
  }
  if (open_row_.has_value() && policy_ == RowPolicy::kOpenRow &&
      timing_->timeout_mode == RowTimeoutMode::kIdlePrecharge &&
      timing_->row_timeout > 0 && now >= last_touch_ + timing_->row_timeout) {
    // The controller precharged the idle row at the timeout; the precharge
    // itself finished long before `now` in every case we model, but we still
    // account for tRP if a command arrives during it.
    const util::Cycle pre_start = last_touch_ + timing_->row_timeout;
    ready_at_ = std::max(ready_at_, pre_start + timing_->trp);
    open_row_.reset();
  }
  return open_row_;
}

RowBufferOutcome Bank::resolve_outcome(RowId row, util::Cycle start) {
  const auto open = open_row(start);
  if (!open.has_value()) return RowBufferOutcome::kEmpty;
  return (*open == row) ? RowBufferOutcome::kHit : RowBufferOutcome::kConflict;
}

// SIMLINT-HOT-BEGIN: per-access fast path — no allocation, no
// std::string, no by-name registry resolves (docs/static-analysis.md).
BankAccessResult Bank::access(RowId row, util::Cycle now) {
  BankAccessResult r;
  // Apply elapsed refresh/timeout state first: both may move ready_at_.
  (void)open_row(now);
  r.start = std::max(now, ready_at_);
  r.outcome = resolve_outcome(row, r.start);
  // For plain accesses the acknowledgement is the data return itself.
  // Constant-time policy: the controller pads every access to the
  // worst-case latency and always restores the bank to the precharged
  // state, so no row-buffer state is observable across accesses.
  if (policy_ == RowPolicy::kConstantTime) {
    r.completion = r.start + timing_->conflict_latency();
    r.ack = r.completion;
    open_row_.reset();
    ready_at_ = r.completion;
    last_touch_ = r.completion;
    ++stats_.activations;
    const RowBufferOutcome true_outcome = r.outcome;
    switch (r.outcome) {
      case RowBufferOutcome::kHit:
        ++stats_.hits;
        break;
      case RowBufferOutcome::kEmpty:
        ++stats_.empties;
        break;
      case RowBufferOutcome::kConflict:
        ++stats_.conflicts;
        break;
    }
    notify(CommandKind::kAccess, row, row, now, r, true_outcome);
    // The observable outcome is constant regardless of internal state.
    r.outcome = RowBufferOutcome::kConflict;
    return r;
  }

  util::Cycle t = r.start;
  switch (r.outcome) {
    case RowBufferOutcome::kHit:
      ++stats_.hits;
      t += timing_->hit_latency();
      break;
    case RowBufferOutcome::kEmpty:
      ++stats_.empties;
      ++stats_.activations;
      t += timing_->empty_latency();
      last_activate_ = r.start;
      open_row_ = row;
      break;
    case RowBufferOutcome::kConflict: {
      ++stats_.conflicts;
      ++stats_.activations;
      // PRE may not begin before tRAS of the previous ACT has elapsed.
      const util::Cycle pre_start =
          std::max(r.start, last_activate_ + timing_->tras);
      t = pre_start + timing_->conflict_latency();
      last_activate_ = pre_start + timing_->trp;
      open_row_ = row;
      break;
    }
  }
  r.completion = t;
  r.ack = r.completion;
  last_touch_ = r.completion;

  // Adaptive open-page prediction: hits build confidence to keep rows
  // open; conflicts burn it.
  if (policy_ == RowPolicy::kAdaptive) {
    if (r.outcome == RowBufferOutcome::kHit) {
      open_confidence_ = static_cast<std::uint8_t>(
          std::min<int>(open_confidence_ + 1, 3));
    } else if (r.outcome == RowBufferOutcome::kConflict) {
      open_confidence_ = open_confidence_ > 0
                             ? static_cast<std::uint8_t>(open_confidence_ - 1)
                             : 0;
    }
  }
  const bool auto_precharge =
      policy_ == RowPolicy::kClosedRow ||
      (policy_ == RowPolicy::kAdaptive && open_confidence_ <= 1);
  if (auto_precharge) {
    // Auto-precharge after the access. The PRE is off the critical path of
    // this access but occupies the bank; it may also not violate tRAS.
    const util::Cycle pre_start =
        std::max(r.completion, last_activate_ + timing_->tras);
    ready_at_ = pre_start + timing_->trp;
    open_row_.reset();
  } else {
    ready_at_ = r.completion;
  }
  notify(CommandKind::kAccess, row, row, now, r, r.outcome);
  return r;
}

BankAccessResult Bank::rowclone(RowId src, RowId dst, util::Cycle now) {
  BankAccessResult r;
  (void)open_row(now);
  r.start = std::max(now, ready_at_);
  r.outcome = resolve_outcome(src, r.start);
  ++stats_.rowclones;
  stats_.activations += 2;

  util::Cycle t = r.start;
  if (r.outcome == RowBufferOutcome::kConflict) {
    // A different row is latched: it must be precharged before the
    // source-row activation, exposing exactly the timing channel the PuM
    // attack measures.
    const util::Cycle pre_start =
        std::max(r.start, last_activate_ + timing_->tras);
    t = pre_start + timing_->trp;
  }
  if (r.outcome == RowBufferOutcome::kHit) {
    // Fast path: the source row is already latched in the row buffer, so
    // the first activation is unnecessary — only the destination ACT (a
    // charge-restore of the same row when src == dst) remains. This is the
    // "self-clone" probe the PuM receiver exploits: cheap when its own row
    // is still open, full-cost when the sender displaced it.
    r.ack = t + timing_->trcd;
    t += timing_->tras;
  } else {
    // The controller acknowledges the command to the core once both
    // activations are issued (the ACT-to-ACT gap is tRCD-class); the
    // analog copy continues in the background until `completion`.
    r.ack = t + timing_->trcd;
    // FPM core operation: ACT(src), restore, ACT(dst) back-to-back.
    t += timing_->rowclone_fpm;
  }
  r.completion = t;
  last_activate_ = r.start;
  last_touch_ = r.completion;
  open_row_ = dst;  // The second activation leaves dst connected.
  const RowBufferOutcome true_outcome = r.outcome;

  if (policy_ == RowPolicy::kClosedRow ||
      policy_ == RowPolicy::kConstantTime) {
    const util::Cycle pre_start =
        std::max(r.completion, last_activate_ + timing_->tras);
    ready_at_ = pre_start + timing_->trp;
    open_row_.reset();
    if (policy_ == RowPolicy::kConstantTime) {
      // Pad to the worst case: conflict-preceded clone.
      r.completion = r.start + timing_->trp + timing_->rowclone_fpm;
      r.ack = r.start + timing_->trp + timing_->trcd;
      ready_at_ = std::max(ready_at_, r.completion);
      r.outcome = RowBufferOutcome::kConflict;
    }
  } else {
    ready_at_ = r.completion;
  }
  notify(CommandKind::kRowClone, dst, src, now, r, true_outcome);
  return r;
}
// SIMLINT-HOT-END

void Bank::stall_until(util::Cycle cycle) {
  ready_at_ = std::max(ready_at_, cycle);
}

void Bank::precharge(util::Cycle now) {
  const util::Cycle start = std::max(now, ready_at_);
  const util::Cycle pre_start = std::max(start, last_activate_ + timing_->tras);
  ready_at_ = pre_start + timing_->trp;
  open_row_.reset();
  ++stats_.precharges;
  if (observer_ != nullptr) {
    BankAccessResult r;
    r.start = start;
    r.completion = ready_at_;
    r.ack = r.completion;
    notify(CommandKind::kPrecharge, 0, 0, now, r,
           RowBufferOutcome::kEmpty);
  }
}

void Bank::notify_observer(CommandKind kind, RowId row, RowId src,
                           util::Cycle issue, const BankAccessResult& r,
                           RowBufferOutcome true_outcome) {
  // Callers guard via notify()'s inline fast path, but the seam contract
  // (observers are optional) must hold for direct calls too.
  if (observer_ == nullptr) return;
  CommandRecord rec;
  rec.kind = kind;
  rec.bank = id_;
  rec.row = row;
  rec.src_row = src;
  rec.issue = issue;
  rec.start = r.start;
  rec.ack = r.ack;
  rec.completion = r.completion;
  rec.outcome = true_outcome;
  rec.policy = policy_;
  rec.open_after = open_row_.has_value();
  rec.open_row_after = open_row_.value_or(0);
  observer_->on_command(rec);
}

}  // namespace impact::dram
