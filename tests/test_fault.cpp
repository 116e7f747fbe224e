// Fault-injection framework tests: injector determinism and validation,
// every fault kind observably firing at its seam, bounded semaphore waits,
// the BackgroundNoise frontier contract, fault-free bit-identity, sweep
// determinism under faults across pool sizes, fault-tolerant sweep
// execution (isolation, structured error reports), and IMPACT_FAULTS
// parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/impact_pnm.hpp"
#include "attacks/impact_pum.hpp"
#include "channel/protocol.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "fault/injector.hpp"
#include "sys/noise.hpp"
#include "sys/sync.hpp"
#include "sys/system.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace impact {
namespace {

using fault::FaultConfig;
using fault::FaultKind;
using fault::Injector;

std::vector<FaultConfig> one_fault(FaultKind kind, double p,
                                   util::Cycle magnitude = 0) {
  return {FaultConfig{kind, p, magnitude, 0, ~0ull}};
}

// --- Injector basics -----------------------------------------------------

TEST(FaultInjector, ValidatesConfigs) {
  EXPECT_THROW(Injector(1, one_fault(FaultKind::kDramJitter, -0.1)),
               std::invalid_argument);
  EXPECT_THROW(Injector(1, one_fault(FaultKind::kDramJitter, 1.5)),
               std::invalid_argument);
  FaultConfig bad_window{FaultKind::kDramJitter, 0.5, 100, 200, 100};
  EXPECT_THROW(Injector(1, {bad_window}), std::invalid_argument);
}

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  Injector a(99, Injector::profile("heavy"));
  Injector b(99, Injector::profile("heavy"));
  for (util::Cycle t = 0; t < 2000; t += 10) {
    ASSERT_EQ(a.access_jitter(t), b.access_jitter(t));
    ASSERT_EQ(a.drop_post(t), b.drop_post(t));
    ASSERT_EQ(a.drop_rowclone_leg(t), b.drop_rowclone_leg(t));
  }
  EXPECT_EQ(a.counters().total_fired(), b.counters().total_fired());
  EXPECT_GT(a.counters().total_fired(), 0u);
}

TEST(FaultInjector, StreamsAreIndependentAcrossSeams) {
  // Consulting one seam must not perturb another seam's decision sequence.
  Injector lone(7, Injector::profile("heavy"));
  Injector noisy(7, Injector::profile("heavy"));
  std::vector<util::Cycle> lone_jitter;
  std::vector<util::Cycle> noisy_jitter;
  for (util::Cycle t = 0; t < 1000; t += 10) {
    lone_jitter.push_back(lone.access_jitter(t));
    (void)noisy.drop_post(t);  // Extra traffic on an unrelated seam.
    (void)noisy.clock_drift(t);
    noisy_jitter.push_back(noisy.access_jitter(t));
  }
  EXPECT_EQ(lone_jitter, noisy_jitter);
}

TEST(FaultInjector, ActivationWindowGatesFiring) {
  std::vector<FaultConfig> faults = {
      FaultConfig{FaultKind::kSemaphoreDrop, 1.0, 0, 1000, 2000}};
  Injector inj(5, faults);
  EXPECT_FALSE(inj.drop_post(999));
  EXPECT_TRUE(inj.drop_post(1000));
  EXPECT_TRUE(inj.drop_post(2000));
  EXPECT_FALSE(inj.drop_post(2001));
  EXPECT_EQ(inj.counters().fired_of(FaultKind::kSemaphoreDrop), 2u);
  EXPECT_EQ(inj.counters()
                .opportunities[static_cast<std::size_t>(
                    FaultKind::kSemaphoreDrop)],
            4u);
}

TEST(FaultInjector, ProfilesAndEnv) {
  EXPECT_TRUE(Injector::profile("off").empty());
  EXPECT_FALSE(Injector::profile("light").empty());
  EXPECT_EQ(Injector::profile("heavy").size(), fault::kFaultKinds);
  EXPECT_THROW(Injector::profile("bogus"), std::invalid_argument);

  ::setenv("IMPACT_FAULTS", "light", 1);
  auto env = Injector::profile_from_env();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->size(), Injector::profile("light").size());
  ::setenv("IMPACT_FAULTS", "off", 1);
  EXPECT_FALSE(Injector::profile_from_env().has_value());
  ::unsetenv("IMPACT_FAULTS");
  EXPECT_FALSE(Injector::profile_from_env().has_value());
}

// --- Bounded semaphore waits (satellite: no more hard-abort) -------------

TEST(SimSemaphoreWaitUntil, AcquiresPendingPostLikeWait) {
  sys::SimSemaphore sem_a(0, 30);
  sys::SimSemaphore sem_b(0, 30);
  (void)sem_a.post(100);
  (void)sem_b.post(100);
  const util::Cycle via_wait = sem_a.wait(50);
  const auto via_until = sem_b.wait_until(50, 50 + 20000);
  EXPECT_TRUE(via_until.acquired());
  EXPECT_EQ(via_until.now, via_wait);  // Identical cost on the happy path.
}

TEST(SimSemaphoreWaitUntil, TimesOutInsteadOfAborting) {
  sys::SimSemaphore sem(0, 30);
  const auto r = sem.wait_until(500, 1500);
  EXPECT_FALSE(r.acquired());
  EXPECT_EQ(r.now, 1500u + 30u);  // Spun to the deadline, then gave up.
}

TEST(SimSemaphoreWaitUntil, LatePostStaysPendingForNextWait) {
  sys::SimSemaphore sem(0, 30);
  (void)sem.post(2000);  // Arrives after the deadline below.
  const auto timed_out = sem.wait_until(0, 1000);
  EXPECT_FALSE(timed_out.acquired());
  EXPECT_EQ(sem.value(), 1u);  // Not consumed by the failed wait.
  const auto acquired = sem.wait_until(timed_out.now, 5000);
  EXPECT_TRUE(acquired.acquired());
}

TEST(SimSemaphoreWaitUntil, RejectsDeadlineBeforeNow) {
  sys::SimSemaphore sem;
  EXPECT_THROW((void)sem.wait_until(100, 99), std::invalid_argument);
}

TEST(SimSemaphoreWait, StillThrowsOnMissedPost) {
  sys::SimSemaphore sem;
  EXPECT_THROW((void)sem.wait(0), std::invalid_argument);
}

// --- BackgroundNoise frontier contract -----------------------------------

TEST(BackgroundNoise, RejectsRewoundFrontierRecoverably) {
  sys::MemorySystem system{sys::SystemConfig{}};
  sys::NoiseConfig config;
  config.accesses_per_kilocycle = 50.0;
  sys::BackgroundNoise noise(config, system, attacks::kVictim);
  noise.advance(10000);
  const auto issued = noise.accesses_issued();
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(noise.frontier(), 10000u);
  EXPECT_THROW(noise.advance(9999), std::invalid_argument);
  // The failed call changed nothing; the process continues.
  EXPECT_EQ(noise.accesses_issued(), issued);
  EXPECT_EQ(noise.frontier(), 10000u);
  noise.advance(20000);
  EXPECT_GT(noise.accesses_issued(), issued);
}

// --- Every fault kind fires observably ------------------------------------

TEST(FaultKinds, DramJitterInflatesObservedLatency) {
  sys::SystemConfig config;
  sys::MemorySystem clean_sys(config);
  attacks::ImpactPnm clean(clean_sys);
  const auto msg = util::BitVec::alternating(32);
  const auto clean_result = clean.transmit(msg);

  sys::MemorySystem faulty_sys(config);
  Injector inj(11, one_fault(FaultKind::kDramJitter, 1.0, 500));
  faulty_sys.set_fault_injector(&inj);
  attacks::ImpactPnm faulty(faulty_sys);
  const auto faulty_result = faulty.transmit(msg);

  EXPECT_GT(inj.counters().fired_of(FaultKind::kDramJitter), 0u);
  EXPECT_GT(faulty_result.report.elapsed_cycles,
            clean_result.report.elapsed_cycles);
}

TEST(FaultKinds, RowCloneDropFlipsPumBits) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  attacks::ImpactPum attack(system);
  // Calibrate fault-free, then fail sender clones: transmitted 1s vanish.
  (void)attack.transmit(util::BitVec::alternating(16));
  Injector inj(13, one_fault(FaultKind::kRowCloneDrop, 1.0));
  system.set_fault_injector(&inj);
  const auto r = attack.transmit(util::BitVec(16, true));
  system.set_fault_injector(nullptr);
  EXPECT_GT(inj.counters().fired_of(FaultKind::kRowCloneDrop), 0u);
  EXPECT_GT(r.report.bit_errors(), 0u);
}

TEST(FaultKinds, RefreshStormDisturbsTheChannel) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  attacks::ImpactPnm attack(system);
  (void)attack.transmit(util::BitVec::alternating(16));  // Calibrate clean.
  Injector inj(17, one_fault(FaultKind::kRefreshStorm, 1.0));
  system.set_fault_injector(&inj);
  const auto r = attack.transmit(util::BitVec::alternating(64));
  system.set_fault_injector(nullptr);
  EXPECT_GT(inj.counters().fired_of(FaultKind::kRefreshStorm), 0u);
  // Every probe sees a precharged bank: 0s read as slow activations.
  EXPECT_GT(r.report.bit_errors(), 0u);
}

TEST(FaultKinds, SemaphoreDropForcesTimeoutsNotAborts) {
  sys::SystemConfig config;
  sys::MemorySystem system(config);
  Injector inj(19, one_fault(FaultKind::kSemaphoreDrop, 1.0));
  system.set_fault_injector(&inj);
  attacks::ImpactPnm attack(system);
  const auto r = attack.transmit(util::BitVec::alternating(32));
  EXPECT_GT(inj.counters().fired_of(FaultKind::kSemaphoreDrop), 0u);
  EXPECT_GT(attack.last_sync_timeouts(), 0u);
  EXPECT_EQ(r.sent.size(), 32u);  // Completed despite every post lost.
}

TEST(FaultKinds, SemaphoreDelaySlowsTheReceiver) {
  sys::SystemConfig config;
  sys::MemorySystem clean_sys(config);
  attacks::ImpactPnm clean(clean_sys);
  const auto msg = util::BitVec::alternating(64);
  const auto clean_r = clean.transmit(msg);

  sys::MemorySystem faulty_sys(config);
  Injector inj(23, one_fault(FaultKind::kSemaphoreDelay, 1.0, 5000));
  faulty_sys.set_fault_injector(&inj);
  attacks::ImpactPnm faulty(faulty_sys);
  const auto faulty_r = faulty.transmit(msg);
  EXPECT_GT(inj.counters().fired_of(FaultKind::kSemaphoreDelay), 0u);
  EXPECT_GT(faulty_r.report.receiver_cycles, clean_r.report.receiver_cycles);
}

TEST(FaultKinds, ClockDriftAdvancesTheReceiverClock) {
  sys::SystemConfig config;
  sys::MemorySystem clean_sys(config);
  attacks::ImpactPnm clean(clean_sys);
  const auto msg = util::BitVec::alternating(64);
  const auto clean_r = clean.transmit(msg);

  sys::MemorySystem faulty_sys(config);
  Injector inj(29, one_fault(FaultKind::kClockDrift, 1.0, 2000));
  faulty_sys.set_fault_injector(&inj);
  attacks::ImpactPnm faulty(faulty_sys);
  const auto faulty_r = faulty.transmit(msg);
  EXPECT_GT(inj.counters().fired_of(FaultKind::kClockDrift), 0u);
  EXPECT_GT(faulty_r.report.receiver_cycles, clean_r.report.receiver_cycles);
}

// --- Fault-free bit-identity ----------------------------------------------

TEST(FaultFree, EmptyInjectorIsBitIdenticalToNoInjector) {
  const auto msg = util::BitVec::alternating(64);
  sys::SystemConfig config;

  sys::MemorySystem bare_sys(config);
  attacks::ImpactPnm bare(bare_sys);
  const auto bare_r = bare.transmit(msg);

  sys::MemorySystem inj_sys(config);
  Injector inj(31, {});  // Attached but configured with zero faults.
  inj_sys.set_fault_injector(&inj);
  attacks::ImpactPnm with_inj(inj_sys);
  const auto inj_r = with_inj.transmit(msg);

  EXPECT_EQ(bare_r.decoded, inj_r.decoded);
  EXPECT_EQ(bare_r.report.elapsed_cycles, inj_r.report.elapsed_cycles);
  EXPECT_EQ(bare_r.report.sender_cycles, inj_r.report.sender_cycles);
  EXPECT_EQ(bare_r.report.receiver_cycles, inj_r.report.receiver_cycles);
  EXPECT_EQ(inj.counters().total_fired(), 0u);
}

// --- Sweep determinism under faults ---------------------------------------

struct CellResult {
  util::BitVec decoded;
  std::uint64_t fired = 0;
  util::Cycle elapsed = 0;

  bool operator==(const CellResult& o) const {
    return decoded == o.decoded && fired == o.fired && elapsed == o.elapsed;
  }
};

std::vector<CellResult> run_fault_sweep(exec::ThreadPool* pool) {
  constexpr std::size_t kCells = 12;
  constexpr std::uint64_t kBase = 2024;
  std::vector<CellResult> cells(kCells);
  exec::Sweep sweep(pool);
  for (std::size_t i = 0; i < kCells; ++i) {
    sweep.add("cell" + std::to_string(i), [&cells, i] {
      const std::uint64_t seed = exec::derive_seed(kBase, i);
      sys::MemorySystem system{sys::SystemConfig{}};
      Injector inj(seed, Injector::profile("heavy"));
      system.set_fault_injector(&inj);
      attacks::ImpactPnm attack(system);
      util::Xoshiro256 rng(seed);
      const auto r = attack.transmit(util::BitVec::random(48, rng));
      cells[i] = CellResult{r.decoded, inj.counters().total_fired(),
                            r.report.elapsed_cycles};
    });
  }
  EXPECT_TRUE(sweep.run().ok());
  return cells;
}

TEST(FaultSweep, BitIdenticalAcrossPoolSizes) {
  const auto serial = run_fault_sweep(nullptr);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    const auto parallel = run_fault_sweep(&pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(serial[i] == parallel[i]) << "cell " << i << " diverged "
                                            << "under " << threads
                                            << " threads";
    }
  }
}

// --- IMPACT_FAULTS env layering -------------------------------------------

TEST(FaultProfileEnv, TransferRecoversWithAmbientProfileLayeredIn) {
  // Base scenario: a 20% post-drop rate. When tools/check.sh runs the
  // suite with IMPACT_FAULTS=heavy, the heavy profile is layered on top —
  // the framed protocol must recover either way.
  auto faults = one_fault(FaultKind::kSemaphoreDrop, 0.2);
  if (const auto env = Injector::profile_from_env()) {
    faults.insert(faults.end(), env->begin(), env->end());
  }
  sys::MemorySystem system{sys::SystemConfig{}};
  attacks::ImpactPnm attack(system);
  (void)attack.transmit(util::BitVec::alternating(16));  // Calibrate clean.
  Injector inj(2718, faults);
  system.set_fault_injector(&inj);

  channel::ProtocolConfig config;
  config.payload_bits = 8;
  config.max_retries = 16;
  channel::FramedProtocol protocol(attack, config);
  util::Xoshiro256 rng(37);
  const auto msg = util::BitVec::random(48, rng);
  const auto r = protocol.send(msg);
  system.set_fault_injector(nullptr);

  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.residual_errors, 0u);
  EXPECT_GT(inj.counters().total_fired(), 0u);
}

// --- Fault-tolerant sweep execution ---------------------------------------

TEST(ResilientSweep, PermanentFailureIsIsolated) {
  exec::Sweep sweep(nullptr);
  std::vector<int> done;
  int broken_runs = 0;
  sweep.add("ok0", [&done] { done.push_back(0); });
  const auto broken = sweep.add("broken", [&broken_runs] {
    ++broken_runs;
    throw std::runtime_error("cell permanently down");
  });
  sweep.add("dependent", [&done] { done.push_back(2); }, {broken});
  sweep.add("ok3", [&done] { done.push_back(3); });
  const auto report = sweep.run();

  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.tasks, 4u);
  EXPECT_EQ(report.completed, 2u);  // ok0 and ok3 still produced.
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(done, (std::vector<int>{0, 3}));
  EXPECT_EQ(broken_runs, 1) << "a failing cell runs exactly once";

  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].task, broken);
  EXPECT_EQ(report.errors[0].label, "broken");
  EXPECT_FALSE(report.errors[0].skipped);
  EXPECT_EQ(report.errors[0].message, "cell permanently down");
  EXPECT_TRUE(report.errors[1].skipped);
  EXPECT_EQ(report.errors[1].label, "dependent");
  EXPECT_NE(report.summary().find("2/4"), std::string::npos);
}

TEST(ResilientSweep, ParallelIsolationMatchesSerial) {
  auto build = [](exec::Sweep& sweep, std::vector<std::atomic<int>>& runs) {
    const auto broken = sweep.add(
        "broken", [] { throw std::runtime_error("down"); });
    for (int i = 0; i < 6; ++i) {
      sweep.add("ok" + std::to_string(i),
                [&runs, i] { ++runs[static_cast<std::size_t>(i)]; });
    }
    sweep.add("child-of-broken", [] {}, {broken});
  };

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(threads);
    exec::Sweep sweep(&pool);
    std::vector<std::atomic<int>> runs(6);
    build(sweep, runs);
    const auto report = sweep.run();
    EXPECT_EQ(report.completed, 6u) << threads << " threads";
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.skipped, 1u);
    ASSERT_EQ(report.errors.size(), 2u);
    EXPECT_EQ(report.errors[0].label, "broken");
    EXPECT_EQ(report.errors[1].label, "child-of-broken");
    for (auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
}

TEST(ResilientSweep, EmptySweepReportsCleanRun) {
  exec::Sweep sweep(nullptr);
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tasks, 0u);
}

// --- Recoverable operator input -------------------------------------------

/// RAII guard: sets/unsets an env var, restores the previous value.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(FaultProfileEnv, UnknownFaultProfileWarnsAndFallsBackToOff) {
  // A typo in IMPACT_FAULTS must not abort a long sweep: warn on stderr
  // (not asserted here) and run fault-free.
  EnvGuard guard("IMPACT_FAULTS", "bogus-profile");
  EXPECT_FALSE(Injector::profile_from_env().has_value());
}

TEST(FaultProfileEnv, KnownFaultProfilesStillResolve) {
  {
    EnvGuard guard("IMPACT_FAULTS", "heavy");
    const auto profile = Injector::profile_from_env();
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(profile->size(), 6u);
  }
  EnvGuard guard("IMPACT_FAULTS", "off");
  EXPECT_FALSE(Injector::profile_from_env().has_value());
}

}  // namespace
}  // namespace impact
