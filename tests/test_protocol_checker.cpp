// Unit tests: the online DRAM protocol checker (src/check/).
//
// Legal streams come from driving real Bank/MemoryController objects with
// the checker attached as an observer; illegal streams are synthesized as
// raw CommandRecords fed straight into on_command(), since the real state
// machines (by design) cannot produce them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/protocol_checker.hpp"
#include "dram/bank.hpp"
#include "dram/config.hpp"
#include "dram/controller.hpp"
#include "dram/observer.hpp"

namespace impact::check {
namespace {

using dram::Bank;
using dram::BankStats;
using dram::CommandKind;
using dram::CommandRecord;
using dram::DramConfig;
using dram::MemoryController;
using dram::RowBufferOutcome;
using dram::RowPolicy;
using dram::Timing;

class ProtocolCheckerTest : public ::testing::Test {
 protected:
  ProtocolCheckerTest()
      : timing_(DramConfig{}.derived_timing()),
        checker_(timing_, FailMode::kCollect) {}

  /// A legal empty-activation record establishing an open row.
  [[nodiscard]] CommandRecord legal_activate(dram::RowId row,
                                             util::Cycle issue) const {
    CommandRecord r;
    r.kind = CommandKind::kAccess;
    r.bank = 3;
    r.row = row;
    r.issue = issue;
    r.start = issue;
    r.completion = r.start + timing_.empty_latency();
    r.ack = r.completion;
    r.outcome = RowBufferOutcome::kEmpty;
    r.policy = RowPolicy::kOpenRow;
    r.open_after = true;
    r.open_row_after = row;
    return r;
  }

  Timing timing_;
  ProtocolChecker checker_;
};

// --- Legal streams ----------------------------------------------------

TEST_F(ProtocolCheckerTest, LegalBankStreamHasNoViolations) {
  Bank bank(timing_, RowPolicy::kOpenRow);
  bank.set_observer(&checker_, 0);
  util::Cycle now = 1000;
  // Empty -> hit -> conflict -> rowclone (PEI-style row traffic followed by
  // an in-subarray copy), then an explicit precharge.
  now = bank.access(10, now).completion + 5;
  now = bank.access(10, now).completion + 5;
  now = bank.access(20, now).completion + 200;
  now = bank.rowclone(20, 21, now).completion + 10;
  bank.precharge(now);
  checker_.reconcile_stats(0, bank.stats());
  EXPECT_EQ(checker_.violations().size(), 0u)
      << checker_.violations().front().report();
  EXPECT_EQ(checker_.commands_checked(), 5u);
}

TEST_F(ProtocolCheckerTest, LegalStreamsAcrossAllPoliciesPass) {
  for (const RowPolicy policy :
       {RowPolicy::kOpenRow, RowPolicy::kClosedRow, RowPolicy::kConstantTime,
        RowPolicy::kAdaptive}) {
    ProtocolChecker checker(timing_, FailMode::kCollect);
    Bank bank(timing_, policy);
    bank.set_observer(&checker, 7);
    util::Cycle now = 500;
    for (int i = 0; i < 32; ++i) {
      const dram::RowId row = static_cast<dram::RowId>(i % 3);
      now = bank.access(row, now).completion + (i % 5);
    }
    now = bank.rowclone(1, 2, now + 300).completion + 10;
    checker.reconcile_stats(7, bank.stats());
    EXPECT_EQ(checker.violations().size(), 0u)
        << "policy " << to_string(policy) << ": "
        << checker.violations().front().report();
  }
}

TEST_F(ProtocolCheckerTest, ControllerStreamWithRefreshAndTimeoutPasses) {
  DramConfig cfg;
  cfg.timing.trefi_ns = 7800.0;  // Enable refresh noise.
  cfg.timing.timeout_mode = dram::RowTimeoutMode::kIdlePrecharge;
  MemoryController mc(cfg);
  ProtocolChecker checker(timing_, FailMode::kCollect);
  mc.set_observer(&checker);
  util::Cycle now = 100;
  for (int i = 0; i < 200; ++i) {
    const auto r = mc.access(static_cast<dram::PhysAddr>(i) * 4096, now);
    now = r.completion + ((i % 7) * 300);  // Some gaps cross the timeout.
  }
  for (dram::BankId b = 0; b < mc.banks(); ++b) {
    checker.reconcile_stats(b, mc.bank_stats(b));
  }
  EXPECT_EQ(checker.violations().size(), 0u)
      << checker.violations().front().report();
}

// --- Illegal streams (synthetic) --------------------------------------

TEST_F(ProtocolCheckerTest, TimeTravelStartIsCaught) {
  checker_.on_command(legal_activate(10, 1000));
  // Second command starts before the first one did.
  CommandRecord bad = legal_activate(11, 400);
  bad.outcome = RowBufferOutcome::kConflict;  // Row 10 is open.
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  const Violation& v = checker_.violations().front();
  EXPECT_EQ(v.rule, "monotonic-start");
  EXPECT_EQ(v.bank, 3u);
  EXPECT_NE(v.report().find("bank 3"), std::string::npos);
  EXPECT_NE(v.trace.find("row=10"), std::string::npos)
      << "trace must show the preceding command on the bank";
}

TEST_F(ProtocolCheckerTest, CompletionBeforeStartIsCaught) {
  CommandRecord bad = legal_activate(10, 1000);
  bad.completion = bad.start - 1;
  bad.ack = bad.completion;
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "time-travel");
  EXPECT_EQ(checker_.violations().front().bank, 3u);
}

TEST_F(ProtocolCheckerTest, HitWithoutActivateIsCaught) {
  // Empty -> Hit with no prior ACT: the row buffer starts closed.
  CommandRecord bad = legal_activate(10, 1000);
  bad.outcome = RowBufferOutcome::kHit;
  bad.completion = bad.start + timing_.hit_latency();
  bad.ack = bad.completion;
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "row-state");
  EXPECT_NE(checker_.violations().front().message.find("prior activation"),
            std::string::npos);
}

TEST_F(ProtocolCheckerTest, HitOnWrongRowIsCaught) {
  checker_.on_command(legal_activate(10, 1000));
  CommandRecord bad = legal_activate(11, 2000);
  bad.outcome = RowBufferOutcome::kHit;
  bad.completion = bad.start + timing_.hit_latency();
  bad.ack = bad.completion;
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "row-state");
}

TEST_F(ProtocolCheckerTest, RowCloneAckAfterCompletionIsCaught) {
  checker_.on_command(legal_activate(10, 1000));
  CommandRecord bad;
  bad.kind = CommandKind::kRowClone;
  bad.bank = 3;
  bad.src_row = 10;
  bad.row = 11;
  bad.issue = 2000;
  bad.start = 2000;
  bad.outcome = RowBufferOutcome::kHit;
  bad.completion = bad.start + timing_.tras;
  bad.ack = bad.completion + 50;  // Acknowledged after the copy finished.
  bad.policy = RowPolicy::kOpenRow;
  bad.open_after = true;
  bad.open_row_after = 11;
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "ack-after-completion");
  EXPECT_EQ(checker_.violations().front().bank, 3u);
}

TEST_F(ProtocolCheckerTest, TooFastConflictViolatesMinLatency) {
  checker_.on_command(legal_activate(10, 1000));
  CommandRecord bad = legal_activate(11, 5000);
  bad.outcome = RowBufferOutcome::kConflict;
  // A conflict needs PRE + ACT + column + burst; hit latency is too fast.
  bad.completion = bad.start + timing_.hit_latency();
  bad.ack = bad.completion;
  checker_.on_command(bad);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "min-latency");
}

TEST_F(ProtocolCheckerTest, StatsMismatchIsCaught) {
  checker_.on_command(legal_activate(10, 1000));
  BankStats claimed;  // Claims nothing happened.
  checker_.reconcile_stats(3, claimed);
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_EQ(checker_.violations().front().rule, "stats-mismatch");
  EXPECT_EQ(checker_.violations().front().bank, 3u);
}

TEST_F(ProtocolCheckerTest, PrechargeCountMismatchIsCaught) {
  checker_.on_command(legal_activate(10, 1000));
  CommandRecord pre;
  pre.kind = CommandKind::kPrecharge;
  pre.bank = 3;
  pre.issue = 5000;
  pre.start = 5000;
  pre.completion = pre.start + timing_.trp;
  pre.ack = pre.completion;
  checker_.on_command(pre);
  ASSERT_TRUE(checker_.violations().empty())
      << checker_.violations().front().report();

  BankStats claimed;  // Right about the activation, silent on the PRE.
  claimed.empties = 1;
  claimed.activations = 1;
  checker_.reconcile_stats(3, claimed);
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations().front().rule, "stats-mismatch");
  EXPECT_NE(checker_.violations().front().message.find("precharges"),
            std::string::npos)
      << checker_.violations().front().message;

  claimed.precharges = 1;  // Now every count agrees: no new violation.
  checker_.reconcile_stats(3, claimed);
  EXPECT_EQ(checker_.violations().size(), 1u);
}

// --- Trace / ring buffer ----------------------------------------------

TEST_F(ProtocolCheckerTest, TraceKeepsOnlyRecentCommandsOldestFirst) {
  ProtocolChecker checker(timing_, FailMode::kCollect, /*trace_depth=*/4);
  util::Cycle now = 1000;
  for (dram::RowId row = 0; row < 10; ++row) {
    CommandRecord r = legal_activate(row, now);
    r.outcome =
        row == 0 ? RowBufferOutcome::kEmpty : RowBufferOutcome::kConflict;
    r.completion = r.start + 10000;  // Generously slow: always legal.
    r.ack = r.completion;
    checker.on_command(r);
    now = r.completion + 100;
  }
  const std::string trace = checker.trace(3);
  EXPECT_EQ(trace.find("row=5"), std::string::npos);
  const auto pos6 = trace.find("row=6");
  const auto pos9 = trace.find("row=9");
  ASSERT_NE(pos6, std::string::npos);
  ASSERT_NE(pos9, std::string::npos);
  EXPECT_LT(pos6, pos9);
  EXPECT_EQ(checker.violations().size(), 0u);
}

// --- Runtime toggling --------------------------------------------------

TEST_F(ProtocolCheckerTest, EnvTogglesAutoAttachedChecker) {
  ASSERT_EQ(setenv("IMPACT_CHECK", "1", /*overwrite=*/1), 0);
  {
    MemoryController mc(DramConfig{});
    EXPECT_NE(mc.checker(), nullptr);
    // Exercise the abort-mode checker on a legal stream; destruction
    // reconciles stats and must not abort.
    util::Cycle now = 100;
    for (int i = 0; i < 50; ++i) {
      now = mc.access(static_cast<dram::PhysAddr>(i) * 64, now).completion + 1;
    }
  }
  ASSERT_EQ(setenv("IMPACT_CHECK", "0", /*overwrite=*/1), 0);
  {
    MemoryController mc(DramConfig{});
    EXPECT_EQ(mc.checker(), nullptr);
  }
  ASSERT_EQ(setenv("IMPACT_CHECK", "1", /*overwrite=*/1), 0);
}

TEST_F(ProtocolCheckerTest, SetObserverReplacesAutoChecker) {
  ASSERT_EQ(setenv("IMPACT_CHECK", "1", /*overwrite=*/1), 0);
  MemoryController mc(DramConfig{});
  ASSERT_NE(mc.checker(), nullptr);
  ProtocolChecker mine(timing_, FailMode::kCollect);
  mc.set_observer(&mine);
  EXPECT_EQ(mc.checker(), nullptr);
  util::Cycle now = 100;
  now = mc.access(0, now).completion + 1;
  (void)mc.access(0, now);
  EXPECT_EQ(mine.commands_checked(), 2u);
  EXPECT_EQ(mine.violations().size(), 0u);
  mc.set_observer(nullptr);  // Detach before `mine` goes out of scope.
}

}  // namespace
}  // namespace impact::check
