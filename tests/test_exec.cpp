// Tests of the parallel experiment engine (src/exec/): thread-pool
// behaviour (exception propagation, degenerate batches), seed derivation,
// sweep dependency ordering, error reporting and the cache hooks. The
// determinism contract on a real grid (parallel Fig. 11 cells identical
// to serial ones for any pool size) is pinned in tests/test_store.cpp.
// Run under IMPACT_SANITIZE=thread by tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "obs/scope.hpp"

namespace impact {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  exec::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ForEachIndexPropagatesFirstException) {
  exec::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.for_each_index(16,
                          [&](std::size_t i) {
                            if (i == 5) throw std::invalid_argument("boom");
                            ++completed;
                          }),
      std::invalid_argument);
  // Batch members are independent: the other 15 indices still ran.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  exec::ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, OversizedBatchDoesNotDeadlock) {
  // Far more tasks than workers: everything must drain.
  exec::ThreadPool pool(2);
  constexpr std::size_t kN = 2000;
  std::atomic<std::size_t> done{0};
  pool.for_each_index(kN, [&](std::size_t) { ++done; });
  EXPECT_EQ(done.load(), kN);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes) {
  exec::ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.for_each_index(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DefaultThreadsAcceptsOnlyDigits) {
  // Reads IMPACT_THREADS only; no pool is constructed.
  const char* old = std::getenv("IMPACT_THREADS");
  const std::optional<std::string> saved =
      old ? std::optional<std::string>(old) : std::nullopt;
  ::unsetenv("IMPACT_THREADS");
  const unsigned hw = exec::ThreadPool::default_threads();
  const struct {
    const char* value;
    unsigned want;
  } cases[] = {{"-1", hw}, {"-3", hw}, {"0", hw}, {"abc", hw},
               {"+2", hw}, {" 3", hw}, {"", hw},  {"4", 4},
               {"300", 256}};
  for (const auto& c : cases) {
    ::setenv("IMPACT_THREADS", c.value, 1);
    EXPECT_EQ(exec::ThreadPool::default_threads(), c.want)
        << "IMPACT_THREADS='" << c.value << "'";
  }
  if (saved) {
    ::setenv("IMPACT_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("IMPACT_THREADS");
  }
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(exec::derive_seed(42, 0), exec::derive_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(exec::derive_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions across task indices.
  // Different base seeds give different streams.
  EXPECT_NE(exec::derive_seed(42, 7), exec::derive_seed(43, 7));
}

TEST(Sweep, SerialRunsInInsertionOrder) {
  exec::Sweep sweep(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sweep.add("t" + std::to_string(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(sweep.run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sweep, DependenciesRunBeforeDependents) {
  exec::ThreadPool pool(4);
  exec::Sweep sweep(&pool);
  std::atomic<bool> built{false};
  std::atomic<int> violations{0};
  const auto build = sweep.add("build", [&built] { built = true; });
  for (int i = 0; i < 8; ++i) {
    sweep.add("use" + std::to_string(i),
              [&built, &violations] {
                if (!built) ++violations;
              },
              {build});
  }
  EXPECT_TRUE(sweep.run().ok());
  EXPECT_EQ(violations.load(), 0);
}

TEST(Sweep, RejectsForwardDependencies) {
  exec::Sweep sweep(nullptr);
  const auto t0 = sweep.add("a", [] {});
  EXPECT_THROW(sweep.add("b", [] {}, {t0 + 1}), std::invalid_argument);
}

TEST(Sweep, ErrorSkipsDependentsAndIsReported) {
  exec::ThreadPool pool(2);
  exec::Sweep sweep(&pool);
  std::atomic<bool> dependent_ran{false};
  const auto bad =
      sweep.add("bad", [] { throw std::runtime_error("build failed"); });
  const auto child =
      sweep.add("child", [&dependent_ran] { dependent_ran = true; }, {bad});
  const exec::RunReport report = sweep.run();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.skipped, 1u);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].task, bad);
  EXPECT_EQ(report.errors[0].message, "build failed");
  EXPECT_EQ(report.errors[1].task, child);
  EXPECT_TRUE(report.errors[1].skipped);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(SweepCache, ProbeHitSkipsFunctionAndCounts) {
  exec::Sweep sweep;
  bool ran = false;
  bool published = false;
  sweep.add_cached(
      "hit", [&] { ran = true; },
      {[] { return true; }, [&](const obs::Snapshot&) { published = true; }});
  sweep.add_cached(
      "miss", [] {}, {[] { return false; }, {}});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(ran) << "a probe hit must skip the cell function";
  EXPECT_FALSE(published) << "publish only runs after the function";
  EXPECT_EQ(report.completed, 2u) << "a hit still counts as completed";
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cache_misses, 1u);
}

TEST(SweepCache, HookExceptionsNeverBreakTheSweep) {
  exec::Sweep sweep;
  int ran = 0;
  // A throwing probe degrades to a miss; a throwing publish is swallowed.
  sweep.add_cached(
      "bad-probe", [&] { ++ran; },
      {[]() -> bool { throw std::runtime_error("probe"); },
       [](const obs::Snapshot&) {}});
  sweep.add_cached(
      "bad-publish", [&] { ++ran; },
      {[] { return false; },
       [](const obs::Snapshot&) { throw std::runtime_error("publish"); }});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 2u);
  EXPECT_EQ(report.cache_stored, 1u) << "only the surviving publish counts";
}

TEST(SweepCache, HitLeavesSnapshotSlotEmptyButValid) {
  for (unsigned threads : {0u, 2u}) {
    exec::ThreadPool pool(threads == 0 ? 1 : threads);
    exec::Sweep sweep(threads == 0 ? nullptr : &pool);
    sweep.set_capture(true);
    const auto hit = sweep.add_cached(
        "hit", [] { FAIL() << "must not run"; }, {[] { return true; }, {}});
    const auto miss = sweep.add_cached(
        "miss",
        [] {
          // Touch the obs spine so the miss cell's snapshot is non-empty.
          if (auto c = obs::counter("exec_test.cache_cells")) c.add(1);
        },
        {[] { return false; }, {}});
    const auto report = sweep.run();
    ASSERT_TRUE(report.ok()) << threads << " thread(s)";
    // Preallocated per-cell slots: a hit's slot exists (mergeable) but
    // holds nothing — the cell never executed, so any content would be
    // double-counted telemetry.
    ASSERT_EQ(report.snapshots.size(), 2u);
    EXPECT_TRUE(report.snapshots[hit].empty());
    EXPECT_EQ(report.snapshots[miss].counter("exec_test.cache_cells"), 1u);
    // Merging across hit and miss slots must work without special-casing.
    obs::Snapshot total = report.snapshots[hit];
    total.merge(report.snapshots[miss]);
    EXPECT_EQ(total.counters, report.snapshots[miss].counters);
  }
}

TEST(SweepCache, PlainRunHonoursProbeAndPublish) {
  exec::Sweep sweep;
  bool ran = false;
  bool published = false;
  sweep.add_cached(
      "hit", [&] { ran = true; }, {[] { return true; }, {}});
  sweep.add_cached(
      "miss", [] {},
      {[] { return false; }, [&](const obs::Snapshot&) { published = true; }});
  (void)sweep.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(published);
}

TEST(SweepCache, HitSatisfiesDependents) {
  exec::Sweep sweep;
  bool dependent_ran = false;
  const auto producer = sweep.add_cached(
      "producer", [] { FAIL() << "cached producer must not run"; },
      {[] { return true; }, {}});
  sweep.add("consumer", [&] { dependent_ran = true; }, {producer});
  const auto report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(dependent_ran)
      << "a cache hit completes the task; dependents must proceed";
}

}  // namespace
}  // namespace impact
