// Unit tests: the obs:: telemetry spine — registry handle semantics,
// snapshot algebra, the trace ring, exporter well-formedness, and the
// reconciliation/determinism pins that tie the spine to the layers it
// instruments.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "attacks/impact_pum.hpp"
#include "channel/report.hpp"
#include "dram/controller.hpp"
#include "exec/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sys/system.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace impact {
namespace {

// --- Registry / handle semantics -------------------------------------

TEST(ObsRegistry, HandlesAreStableAndShared) {
  obs::Registry reg;
  obs::Counter a = reg.counter("x");
  obs::Counter b = reg.counter("x");
  EXPECT_TRUE(a);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);  // Same cell behind both handles.
  EXPECT_EQ(reg.counter_value("x"), 7u);

  // Growth must not invalidate earlier handles (deque-backed cells).
  for (int i = 0; i < 1000; ++i) {
    (void)reg.counter("grow." + std::to_string(i));
  }
  a.add(1);
  EXPECT_EQ(reg.counter_value("x"), 8u);
}

TEST(ObsRegistry, NullHandlesGuard) {
  obs::Counter c;
  obs::Gauge g;
  obs::Distribution d;
  EXPECT_FALSE(c);
  EXPECT_FALSE(g);
  EXPECT_FALSE(d);
  // The free helpers resolve null handles outside any scope.
  EXPECT_FALSE(obs::counter("nope"));
  EXPECT_FALSE(obs::gauge("nope"));
  EXPECT_FALSE(obs::distribution("nope", 0.0, 1.0, 4));
}

TEST(ObsRegistry, GaugesAndDistributions) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("rate");
  g.set(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge_value("rate"), 0.75);

  obs::Distribution d = reg.distribution("lat", 0.0, 10.0, 10);
  d.add(1.0);
  d.add(9.5);
  EXPECT_EQ(d.histogram().total(), 2u);
  // Re-resolving ignores the shape arguments.
  obs::Distribution d2 = reg.distribution("lat", 0.0, 99.0, 3);
  d2.add(5.0);
  EXPECT_EQ(d.histogram().total(), 3u);
}

TEST(ObsRegistry, ProvidersSampleAtSnapshotAndFlush) {
  obs::Registry reg;
  std::uint64_t source = 10;
  const obs::ProviderId id =
      reg.add_provider("sampled", [&source] { return source; });
  EXPECT_EQ(reg.provider_count(), 1u);
  EXPECT_EQ(reg.snapshot().counter("sampled"), 10u);
  source = 25;
  EXPECT_EQ(reg.snapshot().counter("sampled"), 25u);
  EXPECT_EQ(reg.counter_value("sampled"), 25u);  // Cell + live provider.

  // Flushing persists the final value as a plain counter.
  reg.flush_provider(id);
  EXPECT_EQ(reg.provider_count(), 0u);
  source = 999;
  EXPECT_EQ(reg.snapshot().counter("sampled"), 25u);
}

// --- Snapshot algebra --------------------------------------------------

TEST(ObsSnapshot, MergeAddsAndCopiesUniqueNames) {
  obs::Registry a;
  a.counter("shared").add(3);
  a.gauge("g").set(1.5);
  a.distribution("d", 0.0, 4.0, 4).add(1.0);
  obs::Registry b;
  b.counter("shared").add(4);
  b.counter("only_b").add(7);
  b.gauge("g").set(2.5);
  b.distribution("d", 0.0, 4.0, 4).add(3.0);

  obs::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter("shared"), 7u);
  EXPECT_EQ(merged.counter("only_b"), 7u);
  // A gauge is one run's value (a rate, a ratio): two are never summed,
  // and a merged snapshot carries none.
  EXPECT_TRUE(merged.gauges.empty());
  ASSERT_NE(merged.dist("d"), nullptr);
  EXPECT_EQ(merged.dist("d")->total(), 2u);
  EXPECT_EQ(merged.counter("absent"), 0u);
}

TEST(ObsSnapshot, DiffIsolatesAnInterval) {
  obs::Registry reg;
  obs::Counter c = reg.counter("ops");
  c.add(5);
  const obs::Snapshot before = reg.snapshot();
  c.add(10);
  const obs::Snapshot after = reg.snapshot();
  EXPECT_EQ(after.diff(before).counter("ops"), 10u);
  // Reversed diff saturates instead of wrapping.
  EXPECT_EQ(before.diff(after).counter("ops"), 0u);
}

// --- Histogram merge + guarded percentile ------------------------------

TEST(ObsHistogram, PercentileGuardsEdgeCases) {
  util::Histogram empty(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);

  util::Histogram single(0.0, 10.0, 1);
  single.add(3.0);
  // One bucket: every percentile lands on its midpoint.
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(single.percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(single.percentile(-5.0), 5.0);   // Clamped.
  EXPECT_DOUBLE_EQ(single.percentile(200.0), 5.0);  // Clamped.
}

TEST(ObsHistogram, MergeAccumulatesAndChecksShape) {
  util::Histogram a(0.0, 10.0, 10);
  util::Histogram b(0.0, 10.0, 10);
  a.add(1.0);
  b.add(9.0);
  b.add(-1.0);  // Underflow.
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_LT(a.percentile(10.0), a.percentile(90.0));

  util::Histogram shaped(0.0, 10.0, 5);
  EXPECT_THROW(a.merge(shaped), std::invalid_argument);
  util::Histogram range(0.0, 20.0, 10);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

// --- Trace ring --------------------------------------------------------

TEST(ObsTrace, RingOverwritesOldest) {
  obs::TraceSession trace(4);
  for (int i = 0; i < 6; ++i) {
    trace.span("t", "e" + std::to_string(i), i * 10, i * 10 + 5);
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  // Oldest-first iteration starts at the first surviving event.
  EXPECT_EQ(trace.event(0).name, "e2");
  EXPECT_EQ(trace.event(3).name, "e5");
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  obs::TraceSession trace(16);
  trace.span("dram", "ACT \"row\"\\", 10, 20, 3);
  trace.instant("fault", "drop\nline", 15, 1);
  std::ostringstream out;
  trace.write_chrome_json(out);
  const std::string json = out.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Quotes, backslashes and control characters must be escaped: outside
  // the JSON syntax itself no raw quote/newline may survive in a value.
  EXPECT_NE(json.find("ACT \\\"row\\\"\\\\"), std::string::npos);
  EXPECT_NE(json.find("drop\\nline"), std::string::npos);
  EXPECT_EQ(json.find("drop\nline"), std::string::npos);  // Raw \n escaped.
  EXPECT_EQ(json.back(), '\n');
  // Spans carry ph:X with dur, instants ph:i with scope t.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":10"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

// --- Scope stacking ----------------------------------------------------

TEST(ObsScope, NestingRestoresOuterScope) {
  EXPECT_EQ(obs::current_registry(), nullptr);
  obs::Scope outer;
  EXPECT_EQ(obs::current_registry(), &outer.registry());
  obs::counter("depth").add(1);
  {
    obs::Scope inner;
    EXPECT_EQ(obs::current_registry(), &inner.registry());
    obs::counter("depth").add(10);
    EXPECT_EQ(inner.snapshot().counter("depth"), 10u);
  }
  EXPECT_EQ(obs::current_registry(), &outer.registry());
  EXPECT_EQ(outer.snapshot().counter("depth"), 1u);
}

// --- DRAM: multi-observer fan-out + BankStats reconciliation -----------

struct CountingObserver final : dram::CommandObserver {
  std::uint64_t commands = 0;
  std::uint64_t resets = 0;
  void on_command(const dram::CommandRecord&) override { ++commands; }
  void on_stats_reset(dram::BankId) override { ++resets; }
};

TEST(ObsDram, MultipleObserversCoexist) {
  dram::MemoryController mc(dram::DramConfig{});
  CountingObserver first;
  CountingObserver second;
  mc.add_observer(&first);
  mc.add_observer(&second);
  mc.add_observer(&second);  // Duplicate attach is a no-op.
  mc.add_observer(nullptr);  // Null attach is a no-op.
  (void)mc.access_row(0, 1, 1000);
  (void)mc.access_row(1, 2, 2000);
  EXPECT_EQ(first.commands, 2u);
  EXPECT_EQ(second.commands, 2u);

  mc.remove_observer(&first);
  (void)mc.access_row(2, 3, 3000);
  EXPECT_EQ(first.commands, 2u);
  EXPECT_EQ(second.commands, 3u);
}

TEST(ObsDram, RegistryReconcilesWithBankStats) {
  obs::Scope scope;
  dram::MemoryController mc(dram::DramConfig{});
  // Counts come from BankStats; with no trace session there is no tap.
  ASSERT_EQ(mc.obs_tap(), nullptr);

  // Random command stream across banks/rows, with the occasional masked
  // RowClone, explicit precharge and a mid-stream stats reset; the
  // registry must agree with the banks' own BankStats.
  util::Xoshiro256 rng(42);
  util::Cycle now = 1000;
  for (int i = 0; i < 500; ++i) {
    const auto bank = static_cast<dram::BankId>(rng.below(mc.banks()));
    const auto row = static_cast<dram::RowId>(rng.below(32));
    const std::uint64_t pick = rng.below(10);
    if (pick == 0) {
      const auto r = mc.rowclone(
          std::vector{dram::RowCloneLeg{bank, row, (row + 1) % 32}}, now,
          /*atomic=*/false);
      now = r.completion + 10;
    } else if (pick == 1) {
      mc.precharge(bank, now);
      now += 100;
    } else {
      const auto r = mc.access_row(bank, row, now);
      now = r.completion + rng.below(50);
    }
    if (i == 250) {
      mc.reset_stats();
    }
  }

  const dram::BankStats total = mc.total_stats();
  ASSERT_GT(total.precharges, 0u);
  const obs::Snapshot snap = scope.snapshot();
  EXPECT_EQ(snap.counter("dram.hits"), total.hits);
  EXPECT_EQ(snap.counter("dram.empties"), total.empties);
  EXPECT_EQ(snap.counter("dram.conflicts"), total.conflicts);
  EXPECT_EQ(snap.counter("dram.activations"), total.activations);
  EXPECT_EQ(snap.counter("dram.rowclones"), total.rowclones);
  EXPECT_EQ(snap.counter("dram.precharges"), total.precharges);
  EXPECT_EQ(snap.counter("dram.commands"),
            total.accesses() + total.rowclones + total.precharges);
}

TEST(ObsDram, DestroyedControllerFlushesItsCounts) {
  obs::Scope scope;
  dram::BankStats first_total;
  {
    dram::MemoryController first(dram::DramConfig{});
    (void)first.access_row(0, 1, 1000);
    (void)first.access_row(0, 1, 2000);
    first.precharge(0, 3000);
    first_total = first.total_stats();
  }  // Its providers flush into the scope's registry here.
  dram::MemoryController second(dram::DramConfig{});
  (void)second.access_row(1, 2, 1000);
  (void)second.access_row(1, 3, 2000);
  const dram::BankStats second_total = second.total_stats();

  const obs::Snapshot snap = scope.snapshot();
  EXPECT_EQ(snap.counter("dram.hits"), first_total.hits + second_total.hits);
  EXPECT_EQ(snap.counter("dram.empties"),
            first_total.empties + second_total.empties);
  EXPECT_EQ(snap.counter("dram.conflicts"),
            first_total.conflicts + second_total.conflicts);
  EXPECT_EQ(snap.counter("dram.activations"),
            first_total.activations + second_total.activations);
  EXPECT_EQ(snap.counter("dram.precharges"), 1u);
  EXPECT_EQ(snap.counter("dram.commands"), 5u);
}

TEST(ObsDram, TraceSessionDrawsOneSpanPerCommand) {
  obs::TraceSession trace(1024);
  obs::Scope scope(&trace);
  dram::MemoryController mc(dram::DramConfig{});
  ASSERT_NE(mc.obs_tap(), nullptr);
  util::Xoshiro256 rng(7);
  util::Cycle now = 1000;
  for (int i = 0; i < 200; ++i) {
    const auto bank = static_cast<dram::BankId>(rng.below(mc.banks()));
    if (i % 20 == 0) {
      mc.precharge(bank, now);
      now += 100;
    } else {
      now = mc.access_row(bank, static_cast<dram::RowId>(rng.below(32)), now)
                .completion;
    }
  }
  const dram::BankStats total = mc.total_stats();
  ASSERT_EQ(trace.dropped(), 0u);
  ASSERT_EQ(trace.size(), total.accesses() + total.precharges);
  std::uint64_t precharges = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& e = trace.event(i);
    EXPECT_EQ(e.cat, "dram");
    EXPECT_EQ(e.phase, obs::Phase::kSpan);
    if (e.name == "precharge") ++precharges;
  }
  EXPECT_EQ(precharges, total.precharges);
  EXPECT_EQ(scope.snapshot().counter("dram.commands"), trace.size());
}

// --- Channel: snapshot-derived reports + tracing determinism -----------

TEST(ObsChannel, SnapshotReportMatchesTransmitAggregate) {
  obs::Scope scope;
  sys::MemorySystem system{sys::SystemConfig{}};
  attacks::ImpactPum attack(system);
  channel::ChannelReport total;
  for (int i = 0; i < 3; ++i) {
    const auto r = attack.transmit(util::BitVec::alternating(16));
    total.bits_total += r.report.bits_total;
    total.bits_correct += r.report.bits_correct;
    total.elapsed_cycles += r.report.elapsed_cycles;
    total.sender_cycles += r.report.sender_cycles;
    total.receiver_cycles += r.report.receiver_cycles;
  }
  // Calibration traffic goes through do_transmit and must NOT be counted.
  const auto derived = channel::report_from_snapshot(scope.snapshot());
  EXPECT_EQ(scope.snapshot().counter("channel.transmits"), 3u);
  EXPECT_EQ(derived.bits_total, total.bits_total);
  EXPECT_EQ(derived.bits_correct, total.bits_correct);
  EXPECT_EQ(derived.elapsed_cycles, total.elapsed_cycles);
  EXPECT_EQ(derived.sender_cycles, total.sender_cycles);
  EXPECT_EQ(derived.receiver_cycles, total.receiver_cycles);
}

TEST(ObsChannel, TracingDoesNotPerturbTiming) {
  const auto message = util::BitVec::from_string("1011001110001011");

  channel::TransmissionResult plain;
  {
    sys::MemorySystem system{sys::SystemConfig{}};
    attacks::ImpactPum attack(system);
    plain = attack.transmit(message);
  }

  channel::TransmissionResult traced;
  obs::TraceSession trace;
  {
    obs::Scope scope(&trace);
    sys::MemorySystem system{sys::SystemConfig{}};
    attacks::ImpactPum attack(system);
    traced = attack.transmit(message);
  }

  // Observation is read-only: the instrumented run is bit-identical.
  EXPECT_EQ(plain.decoded.to_string(), traced.decoded.to_string());
  EXPECT_EQ(plain.report.elapsed_cycles, traced.report.elapsed_cycles);
  EXPECT_EQ(plain.report.sender_cycles, traced.report.sender_cycles);
  EXPECT_EQ(plain.report.receiver_cycles, traced.report.receiver_cycles);
  EXPECT_GT(trace.size(), 0u);
}

// --- Sweep capture -----------------------------------------------------

TEST(ObsSweep, CapturePerCellAndScheduleIndependent) {
  const auto build = [](exec::Sweep& sweep) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      sweep.add("cell" + std::to_string(i),
                [i] { obs::counter("work").add(i + 1); });
    }
  };

  exec::Sweep serial(nullptr);
  serial.set_capture(true);
  build(serial);
  const exec::RunReport serial_report = serial.run();
  ASSERT_TRUE(serial_report.ok());
  ASSERT_EQ(serial_report.snapshots.size(), 6u);
  obs::Snapshot merged;
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(serial_report.snapshots[i].counter("work"), i + 1);
    merged.merge(serial_report.snapshots[i]);
  }
  EXPECT_EQ(merged.counter("work"), 21u);

  exec::ThreadPool pool(4);
  exec::Sweep parallel(&pool);
  parallel.set_capture(true);
  build(parallel);
  const exec::RunReport parallel_report = parallel.run();
  ASSERT_TRUE(parallel_report.ok());
  ASSERT_EQ(parallel_report.snapshots.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(parallel_report.snapshots[i].counters,
              serial_report.snapshots[i].counters);
  }
}

TEST(ObsSweep, CaptureOffLeavesReportEmpty) {
  exec::Sweep sweep(nullptr);
  sweep.add("noop", [] {});
  const exec::RunReport report = sweep.run();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.snapshots.empty());
}

}  // namespace
}  // namespace impact
