// Unit tests: util (rng, stats, bitvec, histogram, table, units, JSON
// escaping, intern table).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "util/bitvec.hpp"
#include "util/histogram.hpp"
#include "util/intern.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace impact::util {
namespace {

TEST(Frequency, CyclesForNsRoundsUp) {
  constexpr Frequency f{2.6};
  EXPECT_EQ(f.cycles_for_ns(13.5), 36u);  // 35.1 -> 36.
  EXPECT_EQ(f.cycles_for_ns(0.0), 0u);
  EXPECT_EQ(f.cycles_for_ns(10.0), 26u);  // Exact.
}

TEST(Frequency, ThroughputMath) {
  constexpr Frequency f{2.6};
  EXPECT_DOUBLE_EQ(f.seconds(2'600'000'000ull), 1.0);
  EXPECT_NEAR(f.mbps(1e6, 2'600'000'000ull), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.mbps(100, 0), 0.0);
}

TEST(Units, ByteLiterals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, BelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro, BelowCoversAllValues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, BelowRejectsZeroBound) {
  Xoshiro256 rng(7);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Xoshiro, RangeInclusive) {
  Xoshiro256 rng(9);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen = lo_seen || v == -3;
    hi_seen = hi_seen || v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256 rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Xoshiro, NormalScaled) {
  Xoshiro256 rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Xoshiro, ChanceExtremes) {
  Xoshiro256 rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(OnlineStats, Basics) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // Sample stddev.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101), std::invalid_argument);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW((void)geomean({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW((void)geomean({}), std::invalid_argument);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MidpointThreshold) {
  EXPECT_DOUBLE_EQ(midpoint_threshold({1, 2, 3}, {7, 8, 9}), 5.0);
  EXPECT_THROW((void)midpoint_threshold({1, 8}, {7, 9}), std::invalid_argument);
  EXPECT_THROW((void)midpoint_threshold({}, {1.0}), std::invalid_argument);
}

TEST(BitVec, RoundTripString) {
  const auto v = BitVec::from_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.to_string(), "10110");
  EXPECT_THROW(BitVec::from_string("10x"), std::invalid_argument);
}

TEST(BitVec, HammingDistance) {
  const auto a = BitVec::from_string("1010");
  const auto b = BitVec::from_string("1001");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
  EXPECT_THROW((void)a.hamming_distance(BitVec::from_string("10")),
               std::invalid_argument);
}

TEST(BitVec, MaskRoundTrip) {
  const auto v = BitVec::from_string("1011000101");
  const auto mask = v.to_mask();
  EXPECT_EQ(BitVec::from_mask(mask, 10), v);
  EXPECT_EQ(mask & 1ull, 1ull);        // Bit 0 -> LSB.
  EXPECT_EQ((mask >> 9) & 1ull, 1ull); // Bit 9 set.
}

TEST(BitVec, RandomIsBalanced) {
  Xoshiro256 rng(21);
  const auto v = BitVec::random(10000, rng);
  EXPECT_NEAR(static_cast<double>(v.popcount()) / 10000, 0.5, 0.03);
}

TEST(BitVec, Alternating) {
  const auto v = BitVec::alternating(6);
  EXPECT_EQ(v.to_string(), "010101");
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(Histogram, BinsAndBounds) {
  Histogram h(0, 100, 10);
  h.add(5);
  h.add(15);
  h.add(15);
  h.add(-1);
  h.add(100);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 20.0);
  EXPECT_THROW(Histogram(10, 10, 5), std::invalid_argument);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0, 10, 2);
  h.add(1);
  h.add(6);
  const auto s = h.render();
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "23.50"});
  const auto s = t.render();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("23.50"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(5, 0), "5");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("plain text/é"), "plain text/é");
  EXPECT_EQ(json_escape("ACT \"row\"\\"), "ACT \\\"row\\\"\\\\");
  EXPECT_EQ(json_escape("drop\nline\ttab"), "drop\\nline\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(json_escape("2\"x"), "2\\\"x");
}

TEST(InternTable, SharesWhileHeldAndRebuildsAfterRelease) {
  InternTable<int, std::vector<int>> table;
  int calls = 0;
  const auto build = [&calls] {
    ++calls;
    return std::vector<int>(4, calls);
  };
  std::weak_ptr<const std::vector<int>> released;
  {
    const auto a = table.acquire(1, build);
    const auto b = table.acquire(1, build);
    const auto other = table.acquire(2, build);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, other);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(table.builds(), 2u);
    released = a;
  }
  EXPECT_TRUE(released.expired());  // Nothing outlives its users.
  const auto rebuilt = table.acquire(1, build);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(table.builds(), 3u);
  EXPECT_EQ(rebuilt->front(), 3);
}

TEST(InternTable, AFailedBuildLeavesNoEntry) {
  InternTable<int, int> table;
  EXPECT_THROW((void)table.acquire(
                   7, []() -> int { throw std::runtime_error("no"); }),
               std::runtime_error);
  EXPECT_EQ(table.builds(), 0u);
  EXPECT_EQ(*table.acquire(7, [] { return 42; }), 42);
  EXPECT_EQ(table.builds(), 1u);
}

TEST(InternTable, ConcurrentAcquiresOfOneKeyBuildOnce) {
  InternTable<int, std::vector<int>> table;
  std::atomic<int> calls{0};
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const std::vector<int>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = table.acquire(5, [&calls] {
        ++calls;
        // Long enough that the other acquires arrive mid-build.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::vector<int>(1024, 5);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(table.builds(), 1u);
  for (const auto& value : got) EXPECT_EQ(value, got.front());
}

}  // namespace
}  // namespace impact::util
