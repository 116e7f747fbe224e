// Integration tests: the read-mapping side channel.
#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/side_channel.hpp"
#include "exec/thread_pool.hpp"

namespace impact::attacks {
namespace {

SideChannelConfig small_config(std::uint32_t banks) {
  SideChannelConfig config;
  config.banks = banks;
  config.genome_length = 1ull << 17;
  config.reads = 8;
  config.table.buckets = 16384;
  return config;
}

TEST(SideChannelTest, LeaksVictimAccessesAtLowError) {
  ReadMappingSpy spy(small_config(1024));
  const auto r = spy.run();
  EXPECT_GT(r.probes.observations, 1000u);
  EXPECT_LT(r.probes.error_rate(), 0.06);  // Paper: <5% at 1024 banks.
  EXPECT_GT(r.probes.throughput_mbps(2.6), 3.0);
  EXPECT_GT(r.victim_seed_events, 100u);
  EXPECT_GT(r.capture_rate(), 0.15);
  EXPECT_GT(r.victim_accuracy, 0.5);
  EXPECT_GT(r.threshold, 0.0);
}

TEST(SideChannelTest, ErrorGrowsAndCaptureShrinksWithBanks) {
  ReadMappingSpy spy_small(small_config(1024));
  const auto small = spy_small.run();
  ReadMappingSpy spy_large(small_config(4096));
  const auto large = spy_large.run();
  EXPECT_GT(large.probes.error_rate(), small.probes.error_rate());
  EXPECT_LT(large.capture_rate(), small.capture_rate());
  EXPECT_LT(large.capture_throughput_mbps(2.6),
            small.capture_throughput_mbps(2.6));
}

TEST(SideChannelTest, PrecisionImprovesWithBanks) {
  ReadMappingSpy spy_small(small_config(1024));
  ReadMappingSpy spy_large(small_config(4096));
  const auto small = spy_small.run();
  const auto large = spy_large.run();
  EXPECT_EQ(small.precision.entries_per_bank, 16u);
  EXPECT_EQ(large.precision.entries_per_bank, 4u);
  EXPECT_GT(large.precision.bits_per_observation,
            small.precision.bits_per_observation);
}

/// Every field of two results, compared exactly.
void expect_same_result(const SideChannelResult& a, const SideChannelResult& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.probes.observations, b.probes.observations);
  EXPECT_EQ(a.probes.correct, b.probes.correct);
  EXPECT_EQ(a.probes.elapsed_cycles, b.probes.elapsed_cycles);
  EXPECT_EQ(a.victim_seed_events, b.victim_seed_events);
  EXPECT_EQ(a.captured_events, b.captured_events);
  EXPECT_EQ(a.precision.banks, b.precision.banks);
  EXPECT_EQ(a.precision.entries_per_bank, b.precision.entries_per_bank);
  EXPECT_EQ(a.precision.bits_per_observation, b.precision.bits_per_observation);
  EXPECT_EQ(a.victim_accuracy, b.victim_accuracy);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.victim_slowdown, b.victim_slowdown);
  ASSERT_EQ(a.positives.size(), b.positives.size());
  for (std::size_t i = 0; i < a.positives.size(); ++i) {
    EXPECT_EQ(a.positives[i].bank, b.positives[i].bank) << i;
    EXPECT_EQ(a.positives[i].time, b.positives[i].time) << i;
  }
  ASSERT_EQ(a.episode_truths.size(), b.episode_truths.size());
  for (std::size_t i = 0; i < a.episode_truths.size(); ++i) {
    EXPECT_EQ(a.episode_truths[i].true_position,
              b.episode_truths[i].true_position) << i;
    EXPECT_EQ(a.episode_truths[i].begin, b.episode_truths[i].begin) << i;
    EXPECT_EQ(a.episode_truths[i].end, b.episode_truths[i].end) << i;
  }
}

/// FNV-1a over 64-bit words of every field of a result, in order.
std::uint64_t result_digest(const SideChannelResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const auto add_double = [&add](double v) {
    add(std::bit_cast<std::uint64_t>(v));
  };
  add(r.probes.observations);
  add(r.probes.correct);
  add(r.probes.elapsed_cycles);
  add(r.victim_seed_events);
  add(r.captured_events);
  add(r.precision.banks);
  add(r.precision.entries_per_bank);
  add_double(r.precision.bits_per_observation);
  add_double(r.victim_accuracy);
  add_double(r.threshold);
  add_double(r.victim_slowdown);
  add(r.positives.size());
  for (const BankObservation& p : r.positives) {
    add(p.bank);
    add(p.time);
  }
  add(r.episode_truths.size());
  for (const EpisodeTruth& e : r.episode_truths) {
    add(e.true_position);
    add(e.begin);
    add(e.end);
  }
  return h;
}

TEST(SideChannelTest, DeterministicAcrossRuns) {
  // Two independent builds: `b` is made after `a` and its reference and
  // plan are gone, so it synthesizes, indexes and maps again.
  const std::size_t references_before = reference_builds();
  const std::size_t plans_before = victim_plan_builds();
  SideChannelResult ra;
  {
    ReadMappingSpy a(small_config(1024));
    ra = a.run();
  }
  ReadMappingSpy b(small_config(1024));
  const auto rb = b.run();
  EXPECT_EQ(reference_builds(), references_before + 2);
  EXPECT_EQ(victim_plan_builds(), plans_before + 2);
  expect_same_result(ra, rb, "rebuilt");
}

// Bit-for-bit pins of a spy's runs; the constants were computed before the
// victim's mapping became shared between spies. A spy runs once: a second
// run() is refused before it maps the attacker's probe rows again.
TEST(SideChannelTest, RunsMatchTheUnsharedMapping) {
  struct Pin {
    std::uint32_t banks;
    std::uint32_t dummies;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{1024, 0, 0xdbab398b513427dfull},
                         Pin{8192, 0, 0x02e873d5925fcd10ull},
                         Pin{1024, 2, 0x581bb5c108d2bac8ull}}) {
    SCOPED_TRACE(std::to_string(pin.banks) + " banks, " +
                 std::to_string(pin.dummies) + " dummies");
    SideChannelConfig config = small_config(pin.banks);
    config.dummy_probes_per_touch = pin.dummies;
    ReadMappingSpy spy(config);
    EXPECT_EQ(result_digest(spy.run()), pin.digest);
    try {
      (void)spy.run();
      ADD_FAILURE() << "a second run() must fail";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "ReadMappingSpy::run: a spy runs once");
    }
  }
}

TEST(SideChannelTest, CamouflageDegradesAttackerAtProportionalCost) {
  auto cfg = small_config(1024);
  attacks::ReadMappingSpy undefended(cfg);
  const auto open = undefended.run();

  cfg.dummy_probes_per_touch = 4;
  attacks::ReadMappingSpy defended(cfg);
  const auto priv = defended.run();

  EXPECT_GT(priv.probes.error_rate(), 4 * open.probes.error_rate());
  EXPECT_GT(priv.probes.error_rate(), 0.25);
  EXPECT_GT(priv.victim_slowdown, 1.5);
  EXPECT_LT(priv.victim_slowdown, 6.0);
  EXPECT_DOUBLE_EQ(open.victim_slowdown, 1.0);
}

TEST(SideChannelTest, RejectsTinyDevices) {
  SideChannelConfig config;
  config.banks = 8;
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
}

TEST(SideChannelTest, RejectsATableRowSizeOtherThanTheDevices) {
  SideChannelConfig config = small_config(1024);
  config.table.row_bytes *= 2;
  try {
    ReadMappingSpy spy(config);
    ADD_FAILURE() << "a table row size other than the device's must fail";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SideChannelConfig: table.row_bytes must equal the "
                 "device's row size");
  }
}

TEST(SideChannelTest, RejectsAnEmptyVictim) {
  SideChannelConfig config = small_config(1024);
  config.reads = 0;
  EXPECT_THROW(ReadMappingSpy{config}, std::invalid_argument);
  // Reads shorter than one minimizer window probe nothing.
  config.reads = 8;
  config.readsim.read_length = 10;
  ReadMappingSpy spy(config);
  EXPECT_THROW((void)spy.run(), std::invalid_argument);
}

// --- One reference per live key -----------------------------------------
//
// shared_reference's key is (seed, genome_length, table), the table
// compared whole by its defaulted comparison with the fields that only
// stripe the index over the banks (entry_bytes, row_bytes, table_row)
// reset. A new table field is in the key until it is reset there.

struct ConfigChange {
  const char* field;
  void (*apply)(SideChannelConfig&);
};

const ConfigChange kReferenceKeyFields[] = {
    {"seed", [](SideChannelConfig& c) { ++c.seed; }},
    {"genome_length", [](SideChannelConfig& c) { c.genome_length += 1024; }},
    {"table.buckets", [](SideChannelConfig& c) { c.table.buckets *= 2; }},
    {"table.max_positions",
     [](SideChannelConfig& c) { c.table.max_positions /= 2; }},
    {"table.minimizer.k", [](SideChannelConfig& c) { --c.table.minimizer.k; }},
    {"table.minimizer.w", [](SideChannelConfig& c) { --c.table.minimizer.w; }},
};

const ConfigChange kStripingFields[] = {
    {"banks", [](SideChannelConfig& c) { c.banks *= 2; }},
    {"table.entry_bytes",
     [](SideChannelConfig& c) { c.table.entry_bytes /= 2; }},
    {"table.row_bytes", [](SideChannelConfig& c) { c.table.row_bytes *= 2; }},
    {"table.table_row", [](SideChannelConfig& c) { ++c.table.table_row; }},
};

SideChannelConfig key_config() {
  SideChannelConfig config = small_config(1024);
  config.genome_length = 1u << 14;
  return config;
}

TEST(ReferenceKey, EveryKeyFieldGivesItsOwnReference) {
  const SideChannelConfig config = key_config();
  std::vector<std::shared_ptr<const genomics::IndexedReference>> held = {
      shared_reference(config)};
  for (const ConfigChange& change : kReferenceKeyFields) {
    SideChannelConfig changed = config;
    change.apply(changed);
    const auto reference = shared_reference(changed);
    for (const auto& other : held) {
      EXPECT_NE(reference, other) << change.field << " must be in the key";
    }
    held.push_back(reference);
  }
}

TEST(ReferenceKey, StripingFieldsShareTheReference) {
  const SideChannelConfig config = key_config();
  const auto base = shared_reference(config);
  for (const ConfigChange& change : kStripingFields) {
    SideChannelConfig changed = config;
    change.apply(changed);
    EXPECT_EQ(shared_reference(changed), base)
        << change.field << " must not be in the key";
  }
}

TEST(SharedReference, LiveSpiesShareOneBuildAndTheLastReleaseFreesIt) {
  const std::size_t before = reference_builds();
  std::weak_ptr<const genomics::IndexedReference> released;
  {
    const ReadMappingSpy a(small_config(1024));
    const ReadMappingSpy b(small_config(2048));
    EXPECT_EQ(reference_builds(), before + 1);
    EXPECT_EQ(a.reference(), b.reference());
    EXPECT_EQ(&a.table().index(), &b.table().index());
    EXPECT_EQ(a.table().entries_per_bank(), 16u);  // Striping stays own.
    EXPECT_EQ(b.table().entries_per_bank(), 8u);
    released = a.reference();
  }
  EXPECT_TRUE(released.expired());
  const ReadMappingSpy c(small_config(1024));
  EXPECT_EQ(reference_builds(), before + 2);
}

TEST(SharedReference, SpyBesideALiveOneMatchesALoneBuild) {
  for (const std::uint32_t banks : {1024u, 8192u}) {
    SideChannelResult lone;
    {
      ReadMappingSpy spy(small_config(banks));
      lone = spy.run();
    }
    const ReadMappingSpy holder(small_config(2048));
    const std::size_t before = reference_builds();
    ReadMappingSpy spy(small_config(banks));
    EXPECT_EQ(reference_builds(), before);  // Served by the holder's build.
    expect_same_result(spy.run(), lone, std::to_string(banks) + " banks");
  }
}

TEST(SharedReference, SpiesBuiltOnAPoolShareOneBuild) {
  // Fig. 10's shape: one spy per bank count, built concurrently.
  constexpr std::uint32_t kBanks[] = {1024, 2048, 4096, 8192};
  std::vector<std::unique_ptr<ReadMappingSpy>> spies(std::size(kBanks));
  const std::size_t before = reference_builds();
  exec::ThreadPool pool(4);
  pool.for_each_index(spies.size(), [&](std::size_t i) {
    spies[i] = std::make_unique<ReadMappingSpy>(small_config(kBanks[i]));
  });
  EXPECT_EQ(reference_builds(), before + 1);
  for (const auto& spy : spies) {
    EXPECT_EQ(spy->reference(), spies.front()->reference());
    EXPECT_EQ(spy->reference_bases(), 1u << 17);
  }
}

// --- One victim plan per live key ---------------------------------------
//
// shared_victim_plan's key is the reference key plus reads, the whole
// readsim and mapper configs (compared by their defaulted comparisons, so
// a new field is in the key) and the row size. Every other field only
// shapes the device, the attacker or the replay.

const ConfigChange kVictimPlanKeyFields[] = {
    {"reads", [](SideChannelConfig& c) { ++c.reads; }},
    {"readsim.read_length",
     [](SideChannelConfig& c) { c.readsim.read_length += 10; }},
    {"readsim.substitution_rate",
     [](SideChannelConfig& c) { c.readsim.substitution_rate *= 2; }},
    {"mapper.chain.max_gap",
     [](SideChannelConfig& c) { c.mapper.chain.max_gap /= 2; }},
    {"mapper.chain.max_skip",
     [](SideChannelConfig& c) { --c.mapper.chain.max_skip; }},
    {"mapper.chain.gap_penalty",
     [](SideChannelConfig& c) { c.mapper.chain.gap_penalty *= 2; }},
    {"mapper.align.band", [](SideChannelConfig& c) { ++c.mapper.align.band; }},
    {"mapper.candidate_flank",
     [](SideChannelConfig& c) { ++c.mapper.candidate_flank; }},
    {"mapper.min_chain_anchors",
     [](SideChannelConfig& c) { ++c.mapper.min_chain_anchors; }},
    {"table.row_bytes", [](SideChannelConfig& c) { c.table.row_bytes *= 2; }},
};

const ConfigChange kReplayFields[] = {
    {"banks", [](SideChannelConfig& c) { c.banks *= 2; }},
    {"dummy_probes_per_touch",
     [](SideChannelConfig& c) { c.dummy_probes_per_touch = 4; }},
    {"victim_alignment_compute",
     [](SideChannelConfig& c) { c.victim_alignment_compute = 1000; }},
    {"jitter_stddev", [](SideChannelConfig& c) { c.jitter_stddev *= 2; }},
    {"attacker_row", [](SideChannelConfig& c) { ++c.attacker_row; }},
};

TEST(VictimPlanKey, EveryKeyFieldGivesItsOwnPlan) {
  const SideChannelConfig config = key_config();
  std::vector<std::shared_ptr<const VictimPlan>> held = {
      shared_victim_plan(config)};
  const auto check = [&](const ConfigChange& change) {
    SideChannelConfig changed = config;
    change.apply(changed);
    const auto plan = shared_victim_plan(changed);
    for (const auto& other : held) {
      EXPECT_NE(plan, other) << change.field << " must be in the key";
    }
    held.push_back(plan);
  };
  for (const ConfigChange& change : kReferenceKeyFields) check(change);
  for (const ConfigChange& change : kVictimPlanKeyFields) check(change);
}

TEST(VictimPlanKey, ReplayFieldsShareThePlan) {
  const SideChannelConfig config = key_config();
  const auto base = shared_victim_plan(config);
  for (const ConfigChange& change : kReplayFields) {
    SideChannelConfig changed = config;
    change.apply(changed);
    EXPECT_EQ(shared_victim_plan(changed), base)
        << change.field << " must not be in the key";
  }
}

TEST(VictimPlan, SpyTraceMatchesAMapperOnItsOwnDevice) {
  for (const std::uint32_t banks : {1024u, 2048u, 4096u, 8192u}) {
    SCOPED_TRACE(std::to_string(banks) + " banks");
    const SideChannelConfig config = small_config(banks);
    ReadMappingSpy spy(config);
    (void)spy.run();
    const genomics::Genome& genome = spy.reference()->genome;
    std::vector<genomics::MemoryTouch> own;
    genomics::ReadMapper mapper(
        genome, spy.table(), spy.layout(), config.mapper,
        [&own](const genomics::MemoryTouch& t) { own.push_back(t); });
    for (const auto& read : victim_reads(config, genome)) {
      (void)mapper.map(read);
    }
    const auto& trace = spy.victim_trace();
    ASSERT_EQ(trace.size(), own.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].kind, own[i].kind) << i;
      EXPECT_EQ(trace[i].location, own[i].location) << i;
      EXPECT_EQ(trace[i].bucket, own[i].bucket) << i;
      EXPECT_EQ(trace[i].ref_position, own[i].ref_position) << i;
    }
  }
}

TEST(VictimPlan, LiveSpiesShareOneBuildAndTheLastReleaseFreesIt) {
  const std::size_t before = victim_plan_builds();
  std::weak_ptr<const VictimPlan> released;
  {
    std::vector<std::unique_ptr<ReadMappingSpy>> spies;
    for (const std::uint32_t banks : {1024u, 2048u, 4096u, 8192u}) {
      spies.push_back(std::make_unique<ReadMappingSpy>(small_config(banks)));
      EXPECT_EQ(spies.back()->plan(), nullptr);  // Mapped in run().
      (void)spies.back()->run();
      EXPECT_EQ(spies.back()->plan(), spies.front()->plan());
    }
    EXPECT_EQ(victim_plan_builds(), before + 1);
    EXPECT_EQ(spies.front()->plan()->reference, spies.front()->reference());
    released = spies.front()->plan();
  }
  EXPECT_TRUE(released.expired());
  ReadMappingSpy again(small_config(1024));
  (void)again.run();
  EXPECT_EQ(victim_plan_builds(), before + 2);
}

TEST(VictimPlan, SpyBesideALiveOneMatchesALoneRun) {
  SideChannelConfig camouflaged = small_config(1024);
  camouflaged.dummy_probes_per_touch = 2;
  SideChannelConfig unpipelined = small_config(2048);
  unpipelined.victim_alignment_compute = 2048 * 600ull;
  const std::pair<const char*, SideChannelConfig> cases[] = {
      {"1024 banks", small_config(1024)},
      {"8192 banks", small_config(8192)},
      {"camouflaged", camouflaged},
      {"unpipelined", unpipelined},
  };
  for (const auto& [label, config] : cases) {
    SideChannelResult lone;
    {
      ReadMappingSpy spy(config);
      lone = spy.run();
    }
    ReadMappingSpy holder(small_config(4096));
    (void)holder.run();
    const std::size_t before = victim_plan_builds();
    ReadMappingSpy spy(config);
    const auto shared = spy.run();
    EXPECT_EQ(victim_plan_builds(), before) << label;  // The holder's plan.
    EXPECT_EQ(spy.plan(), holder.plan()) << label;
    expect_same_result(shared, lone, label);
  }
}

TEST(VictimPlan, SpiesRunOnAPoolShareOneMapping) {
  // Fig. 10's cells on a pool: four same-seed spies acquire the plan
  // concurrently from run().
  constexpr std::uint32_t kBanks[] = {1024, 2048, 4096, 8192};
  std::vector<std::unique_ptr<ReadMappingSpy>> spies;
  for (const std::uint32_t banks : kBanks) {
    spies.push_back(std::make_unique<ReadMappingSpy>(small_config(banks)));
  }
  std::vector<SideChannelResult> results(spies.size());
  const std::size_t before = victim_plan_builds();
  exec::ThreadPool pool(4);
  pool.for_each_index(spies.size(),
                      [&](std::size_t i) { results[i] = spies[i]->run(); });
  EXPECT_EQ(victim_plan_builds(), before + 1);
  for (std::size_t i = 0; i < spies.size(); ++i) {
    EXPECT_EQ(spies[i]->plan(), spies.front()->plan());
    EXPECT_GT(results[i].victim_seed_events, 0u);
  }
}

/// FNV-1a over 64-bit words of a seed table's total positions, occupancy
/// and every bucket's positions in order.
std::uint64_t index_digest(const genomics::SeedTable& table) {
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const std::uint32_t buckets = table.config().buckets;
  add(table.total_positions());
  add(static_cast<std::uint64_t>(table.occupancy() * buckets));
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const auto positions = table.query_bucket(b);
    add(positions.size());
    for (const std::uint32_t p : positions) add(p);
  }
  return h;
}

// Bit-for-bit pin of the index Fig. 10's spies map against: the default
// config (seed 1234, whose genome is drawn from seed ^ 0x9E3779B97F4A7C15).
// The constant was computed before the index became shared between spies.
TEST(SideChannelTest, Fig10ReferenceIndexPin) {
  const ReadMappingSpy spy{SideChannelConfig{}};
  EXPECT_EQ(spy.reference_bases(), 1u << 21);
  EXPECT_EQ(spy.table().total_positions(), 294188u);
  EXPECT_EQ(spy.table().occupancy(), 1.0);  // Every bucket is hit.
  EXPECT_EQ(index_digest(spy.table()), 0x0863657fb849d99aull);
}

}  // namespace
}  // namespace impact::attacks
