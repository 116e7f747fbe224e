#include "attacks/side_channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "attacks/common.hpp"
#include "channel/threshold.hpp"
#include "util/assert.hpp"
#include "util/intern.hpp"

namespace impact::attacks {

namespace {

/// Victim touches recorded per bank between two attacker probes.
struct Window {
  std::uint32_t seed_touches = 0;
  bool any_disturbance = false;
};

/// What shared_reference's build reads: the seed, the genome length and
/// the table config with the fields that only stripe the index over the
/// banks (entry_bytes, row_bytes, table_row) reset. Any other table field,
/// a new one included, stays in the key.
auto reference_key(const SideChannelConfig& config) {
  genomics::SeedTableConfig table = config.table;
  table.entry_bytes = 0;
  table.row_bytes = 0;
  table.table_row = 0;
  return std::tuple{config.seed, config.genome_length, table};
}

auto& references() {
  static util::InternTable<decltype(reference_key({})),
                           genomics::IndexedReference>
      table;
  return table;
}

/// What shared_victim_plan's build reads: the reference key (the read RNG
/// is seeded from its seed), the read count, the whole read simulator and
/// mapper configs, and the row size in bases.
auto victim_plan_key(const SideChannelConfig& config,
                     std::uint32_t bases_per_row) {
  return std::tuple{reference_key(config), config.reads, config.readsim,
                    config.mapper, bases_per_row};
}

auto& victim_plans() {
  static util::InternTable<decltype(victim_plan_key({}, 0)), VictimPlan> table;
  return table;
}

/// Maps the victim's read batch against the shared reference.
VictimPlan map_victim(const SideChannelConfig& config,
                      std::uint32_t bases_per_row) {
  VictimPlan plan;
  plan.reference = shared_reference(config);
  const genomics::Genome& genome = plan.reference->genome;
  std::uint32_t current_read = 0;
  genomics::ReadMapper mapper(
      genome, plan.reference->index, bases_per_row, config.mapper,
      [&plan, &current_read](const genomics::MemoryTouch& t) {
        plan.touches.push_back(t);
        plan.touch_read.push_back(current_read);
      });
  for (const auto& read : victim_reads(config, genome)) {
    current_read = static_cast<std::uint32_t>(plan.read_positions.size());
    plan.read_positions.push_back(read.true_position);
    const auto m = mapper.map(read);
    const auto delta = static_cast<std::int64_t>(m.position) -
                       static_cast<std::int64_t>(read.true_position);
    if (m.mapped && std::llabs(delta) <= 5) ++plan.mapped_ok;
  }
  return plan;
}

}  // namespace

std::shared_ptr<const genomics::IndexedReference> shared_reference(
    const SideChannelConfig& config) {
  return references().acquire(reference_key(config), [&config] {
    util::Xoshiro256 genome_rng(config.seed ^ 0x9E3779B97F4A7C15ull);
    genomics::Genome genome =
        genomics::Genome::synthesize(config.genome_length, genome_rng);
    genomics::SeedIndex index(config.table, genome);
    return genomics::IndexedReference{std::move(genome), std::move(index)};
  });
}

std::size_t reference_builds() { return references().builds(); }

std::vector<genomics::Read> victim_reads(const SideChannelConfig& config,
                                         const genomics::Genome& genome) {
  util::Xoshiro256 read_rng(config.seed ^ 0xABCDEF12345678ull);
  return genomics::sample_reads(genome, config.reads, config.readsim,
                                read_rng);
}

std::shared_ptr<const VictimPlan> shared_victim_plan(
    const SideChannelConfig& config) {
  const std::uint32_t bases_per_row = config.table.row_bytes * 4;
  return victim_plans().acquire(victim_plan_key(config, bases_per_row),
                                [&config, bases_per_row] {
                                  return map_victim(config, bases_per_row);
                                });
}

std::size_t victim_plan_builds() { return victim_plans().builds(); }

ReadMappingSpy::ReadMappingSpy(SideChannelConfig config)
    : config_(config), rng_(config.seed) {
  util::check(config_.banks >= 16, "SideChannelConfig: needs >= 16 banks");
  util::check(config_.reads > 0, "SideChannelConfig: needs >= 1 read");

  system_config_.dram.channels = 1;
  system_config_.dram.ranks = 1;
  system_config_.dram.banks_per_rank = config_.banks;
  system_config_.dram.rows_per_bank = config_.rows_per_bank;
  system_config_.dram.subarray_rows =
      std::min(system_config_.dram.subarray_rows, config_.rows_per_bank);
  system_config_.seed = config_.seed;
  util::check(config_.table.row_bytes == system_config_.dram.row_bytes,
              "SideChannelConfig: table.row_bytes must equal the device's "
              "row size");
  system_ = std::make_unique<sys::MemorySystem>(system_config_);

  // The shared reference, striped over this device's banks.
  reference_ = shared_reference(config_);
  table_ = std::make_unique<genomics::SeedTable>(
      config_.table, config_.banks,
      std::shared_ptr<const genomics::SeedIndex>(reference_,
                                                 &reference_->index));
  layout_ = genomics::ReferenceLayout{config_.banks, /*base_row=*/32,
                                      system_config_.dram.row_bytes,
                                      system_config_.dram.row_bytes * 4};

  // Both actors take the CPU path in run(): the victim's host-side PEIs,
  // the attacker's bookkeeping loads and stores. Build each hierarchy
  // here, just before the actor's dispatcher, not when run() first needs
  // it; the peak memory of a spy depends on this allocation order.
  (void)system_->hierarchy(kVictim);
  victim_pei_ =
      std::make_unique<pim::PeiDispatcher>(config_.pei, *system_, kVictim);
  (void)system_->hierarchy(kReceiver);
  attacker_pei_ =
      std::make_unique<pim::PeiDispatcher>(config_.pei, *system_, kReceiver);
}

sys::VAddr ReadMappingSpy::victim_vaddr(const genomics::TableLocation& loc) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(loc.bank) << 32) | loc.row;
  auto it = victim_rows_.find(key);
  if (it == victim_rows_.end()) {
    const auto span = system_->vmem().map_row(kVictim, loc.bank, loc.row);
    system_->warm_span(kVictim, span);
    it = victim_rows_.emplace(key, span.vaddr).first;
  }
  return it->second + loc.col;
}

void ReadMappingSpy::victim_step(std::size_t touch_index) {
  const auto& touch = victim_trace_[touch_index];
  victim_clock_ += config_.victim_compute_per_touch;
  (void)victim_pei_->execute(victim_vaddr(touch.location), victim_clock_);
}

double ReadMappingSpy::measure_probe(std::uint32_t bank) {
  const auto& ts = system_->timestamp();
  // Rotate the targeted block within the row (the §4.1 ignore-flag bypass)
  // so the PMU keeps the probe memory-side.
  const std::uint32_t col = attacker_pei_->next_bypass_column(
      system_config_.dram.row_bytes, 64);
  const util::Cycle t0 = ts.read(attacker_clock_);
  (void)attacker_pei_->execute(attacker_rows_[bank] + col, attacker_clock_);
  const util::Cycle t1 = ts.read_fast(attacker_clock_);
  double latency = static_cast<double>(t1 - t0);
  // §5.1 noise sources: measurement jitter plus occasional latency spikes
  // (interrupts, refresh collisions); both scale with the sweep footprint
  // (see SideChannelConfig::jitter_stddev).
  latency += rng_.normal(0.0, config_.jitter_stddev * jitter_scale_);
  if (rng_.chance(config_.spike_probability * jitter_scale_)) {
    latency += std::abs(rng_.normal(config_.spike_mean,
                                    config_.spike_mean / 2.0));
  }
  return latency;
}

void ReadMappingSpy::calibrate() {
  // The attacker self-calibrates in bank 0 with a scratch disturber row.
  const auto disturber =
      system_->vmem().map_row(kReceiver, 0, config_.attacker_row + 1);
  system_->warm_span(kReceiver, disturber);
  channel::ThresholdCalibrator cal;
  for (int i = 0; i < 48; ++i) {
    const std::uint32_t col = attacker_pei_->next_bypass_column(
        system_config_.dram.row_bytes, 64);
    (void)attacker_pei_->execute(attacker_rows_[0] + col, attacker_clock_);
    cal.add_low(measure_probe(0));  // Own row still open: the 0 cluster.
    (void)attacker_pei_->execute(disturber.vaddr + col, attacker_clock_);
    cal.add_high(measure_probe(0));  // Displaced row: the 1 cluster.
  }
  threshold_ = cal.threshold();
}

bool ReadMappingSpy::attacker_probe(std::uint32_t bank) {
  const double latency = measure_probe(bank);
  attacker_clock_ += config_.attacker_loop_cost;
  // Update this bank's bookkeeping record (timestamp + decision history)
  // through the attacker's own cache hierarchy: at small bank counts the
  // record array stays L1/L2-resident; a device-wide sweep pushes it into
  // the LLC and the per-probe cost grows accordingly.
  const sys::VAddr record =
      bookkeeping_span_.vaddr +
      static_cast<std::uint64_t>(bank) * config_.bookkeeping_bytes_per_bank;
  (void)system_->load(kReceiver, record, attacker_clock_);
  (void)system_->store(kReceiver, record + 64, attacker_clock_);
  return channel::decode_bit(latency, threshold_);
}

SideChannelResult ReadMappingSpy::run() {
  // A second run would map the attacker's probe rows again.
  util::check(plan_ == nullptr, "ReadMappingSpy::run: a spy runs once");
  SideChannelResult result;

  // --- Locate the victim's shared mapping plan on this device. ----------
  plan_ = shared_victim_plan(config_);
  util::check(!plan_->touches.empty(),
              "ReadMappingSpy: the victim's reads touch no memory");
  victim_trace_ = plan_->touches;
  for (genomics::MemoryTouch& t : victim_trace_) {
    t.location = genomics::locate(t, *table_, layout_);
  }
  const std::vector<std::uint32_t>& touch_read = plan_->touch_read;
  result.victim_accuracy = static_cast<double>(plan_->mapped_ok) /
                           static_cast<double>(config_.reads);

  // --- Attacker setup + calibration. -----------------------------------
  // The probe array is one huge-page-backed row span covering row
  // `attacker_row` of every bank: thousands of banks fit in a handful of
  // 2 MiB TLB entries, so sweeps do not thrash the attacker's own TLB.
  const auto probe_span = system_->vmem().map_row_span(
      kReceiver, config_.attacker_row, /*huge=*/true);
  system_->warm_span(kReceiver, probe_span);
  attacker_rows_.resize(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    attacker_rows_[b] =
        probe_span.vaddr + static_cast<std::uint64_t>(b) *
                               system_config_.dram.row_bytes;
  }
  const std::uint64_t book_bytes = static_cast<std::uint64_t>(config_.banks) *
                                   config_.bookkeeping_bytes_per_bank;
  bookkeeping_span_ = system_->vmem().map_pages(
      kReceiver, (book_bytes + 4095) / 4096);
  system_->warm_span(kReceiver, bookkeeping_span_);
  jitter_scale_ = std::sqrt(static_cast<double>(config_.banks) / 1024.0);
  calibrate();
  result.threshold = threshold_;

  // Initialization sweep: open the attacker's row in every bank.
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    (void)attacker_pei_->execute(attacker_rows_[b], attacker_clock_);
    attacker_clock_ += config_.attacker_loop_cost;
  }

  // --- Co-simulation: victim replays its trace, attacker sweeps. -------
  std::vector<Window> windows(config_.banks);
  std::size_t tv = 0;
  std::uint32_t pb = 0;
  victim_clock_ = attacker_clock_;  // Both start now.
  const util::Cycle start = attacker_clock_;

  auto note_victim_touch = [&](const genomics::MemoryTouch& t) {
    auto& w = windows[t.location.bank];
    w.any_disturbance = true;
    if (t.kind == genomics::MemoryTouch::Kind::kSeedProbe) {
      ++w.seed_touches;
      ++result.victim_seed_events;
    }
  };

  auto do_probe = [&](std::uint32_t bank) {
    const bool decision = attacker_probe(bank);
    auto& w = windows[bank];
    const bool truth = w.seed_touches > 0;
    ++result.probes.observations;
    if (decision == truth) ++result.probes.correct;
    if (decision && truth) ++result.captured_events;
    if (decision) {
      result.positives.push_back(BankObservation{bank, attacker_clock_});
    }
    w = Window{};
  };

  // Ground-truth read episodes (evaluation only): opened/closed as the
  // victim's trace replay crosses read boundaries.
  std::uint32_t truth_read = touch_read[0];
  util::Cycle truth_begin = victim_clock_;
  auto close_episode = [&](util::Cycle end) {
    result.episode_truths.push_back(EpisodeTruth{
        plan_->read_positions[truth_read], truth_begin, end});
  };

  // Run to steady state: the victim replays its mapping workload
  // continuously (a long sequencing batch) until the attacker has swept
  // the whole device several times.
  const std::size_t target_probes = 6ull * config_.banks;
  util::Cycle victim_dummy_cycles = 0;
  util::Cycle victim_total_cycles = 0;
  while (result.probes.observations < target_probes) {
    if (victim_clock_ <= attacker_clock_) {
      if (touch_read[tv] != truth_read) {
        close_episode(victim_clock_);
        // Unpipelined per-read tail work (see victim_alignment_compute).
        victim_clock_ += config_.victim_alignment_compute;
        truth_read = touch_read[tv];
        truth_begin = victim_clock_;
      }
      const util::Cycle before = victim_clock_;
      note_victim_touch(victim_trace_[tv]);
      victim_step(tv);
      // Camouflage defense: bury the real probe in dummy probes to
      // uniformly random banks (same table row, random entry offset —
      // indistinguishable from real lookups to the attacker).
      const util::Cycle dummies_from = victim_clock_;
      for (std::uint32_t d = 0; d < config_.dummy_probes_per_touch; ++d) {
        genomics::TableLocation loc;
        loc.bank = static_cast<dram::BankId>(rng_.below(config_.banks));
        loc.row = config_.table.table_row;
        loc.col = static_cast<std::uint32_t>(
            rng_.below(table_->entries_per_bank()) *
            config_.table.entry_bytes);
        windows[loc.bank].any_disturbance = true;
        (void)victim_pei_->execute(victim_vaddr(loc), victim_clock_);
      }
      victim_dummy_cycles += victim_clock_ - dummies_from;
      victim_total_cycles += victim_clock_ - before;
      tv = (tv + 1) % victim_trace_.size();
    } else {
      do_probe(pb);
      pb = (pb + 1) % config_.banks;
    }
  }
  close_episode(victim_clock_);
  if (victim_total_cycles > victim_dummy_cycles) {
    result.victim_slowdown =
        static_cast<double>(victim_total_cycles) /
        static_cast<double>(victim_total_cycles - victim_dummy_cycles);
  }

  result.probes.elapsed_cycles = attacker_clock_ - start;
  result.precision = genomics::LeakPrecision::of(*table_);
  return result;
}

}  // namespace impact::attacks
