// The IMPACT side-channel attack on PiM-accelerated read mapping (§4.3).
//
// A victim process maps reads against a shared reference whose seed hash
// table is striped across all DRAM banks of the PiM device; its seeding
// and alignment steps are offloaded as PEI operations, activating the
// hash-table (or reference) row of the touched bank. The attacker holds
// one row in every bank and sweeps the device with timed PEI probes: a
// probe that finds the attacker's own row still open means nobody touched
// the bank since the last sweep (0); a row conflict means the victim did
// (1). Each correct decision narrows the victim's hash-table bucket to
// buckets/banks candidates (§5.4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attacks/genome_inference.hpp"
// The side channel leaks the genomics victim's hash-bucket accesses;
// genomics never includes attacks, so the DAG stays acyclic.
// SIMLINT-ALLOW(layering): genomics victim model feeds this attack.
#include "genomics/genome.hpp"
// SIMLINT-ALLOW(layering): see above.
#include "genomics/leak.hpp"
// SIMLINT-ALLOW(layering): see above.
#include "genomics/mapper.hpp"
// SIMLINT-ALLOW(layering): see above.
#include "genomics/seed_table.hpp"
#include "pim/pei.hpp"
#include "sys/system.hpp"
#include "util/rng.hpp"

namespace impact::attacks {

struct SideChannelConfig {
  std::uint32_t banks = 1024;      ///< PiM device bank count (Fig. 10 x-axis).
  std::uint32_t rows_per_bank = 256;
  std::size_t genome_length = 1ull << 21;  ///< Synthetic reference bases.
  std::size_t reads = 64;                  ///< Victim workload size.
  genomics::SeedTableConfig table{};
  genomics::ReadSimConfig readsim{};
  genomics::MapperConfig mapper{};
  pim::PeiConfig pei{};
  dram::RowId attacker_row = 4;
  /// CPU work the victim does between consecutive PiM offloads (hashing,
  /// chaining arithmetic).
  util::Cycle victim_compute_per_touch = 220;
  /// Host-side work at each read boundary (chaining + DP bookkeeping that
  /// is NOT overlapped with the next read's seeding). 0 models a fully
  /// pipelined victim (the Fig. 10 default); a non-zero value creates the
  /// inter-read gaps the inference stage's episode segmentation keys on.
  util::Cycle victim_alignment_compute = 0;
  /// Attacker's loop/bookkeeping cost per probe.
  util::Cycle attacker_loop_cost = 8;
  /// Stddev of system measurement jitter (§5.1 noise sources) in cycles.
  /// Scaled by sqrt(banks/1024): a sweep with a larger footprint keeps
  /// less of the attacker's own microarchitectural state (branch targets,
  /// TLB, cache) warm, so each measurement is noisier — the paper's
  /// "probing more banks makes the attack more prone to noise".
  double jitter_stddev = 6.0;
  /// Probability and magnitude of occasional latency spikes (interrupts,
  /// refresh collisions); probability scales like the jitter.
  double spike_probability = 0.022;
  double spike_mean = 60.0;
  /// Per-bank bookkeeping record the attacker maintains (timestamps,
  /// decision history) — streamed through its own cache hierarchy, so a
  /// big sweep pays LLC-class latencies per probe where a small one stays
  /// L1/L2-resident.
  std::uint32_t bookkeeping_bytes_per_bank = 256;
  /// Victim-side camouflage defense (extension, in the spirit of the
  /// obfuscation defenses §7 surveys): for every real seed probe the
  /// victim issues this many dummy PEIs to uniformly random banks, burying
  /// its true access pattern in cover traffic at a proportional
  /// performance cost. 0 disables the defense.
  std::uint32_t dummy_probes_per_touch = 0;
  std::uint64_t seed = 1234;
};

struct SideChannelResult {
  /// Probe-decision accounting (Fig. 10's throughput / error definition).
  genomics::LeakReport probes;
  /// Victim-event capture: how many of the victim's seed accesses the
  /// attacker's sweep resolution actually attributed (multi-touch events
  /// inside one probe window collapse into one observation — the organic
  /// reason more banks leak *less* per second).
  std::size_t victim_seed_events = 0;
  std::size_t captured_events = 0;
  genomics::LeakPrecision precision{};
  double victim_accuracy = 0.0;  ///< Victim's mapping quality (sanity).
  double threshold = 0.0;
  /// Victim slowdown from camouflage dummy probes (1.0 = no defense).
  double victim_slowdown = 1.0;
  /// Raw material for the §4.3 completion attack (genome_inference.hpp):
  /// the attacker's positive observations and — for evaluation only — the
  /// ground-truth read episodes they overlap.
  std::vector<BankObservation> positives;
  std::vector<EpisodeTruth> episode_truths;

  [[nodiscard]] double capture_rate() const {
    return victim_seed_events == 0
               ? 0.0
               : static_cast<double>(captured_events) /
                     static_cast<double>(victim_seed_events);
  }

  /// Leakage measured in correctly captured victim events per second: the
  /// complementary Fig. 10 metric (each captured event pins one hash-table
  /// access to a bucket group).
  [[nodiscard]] double capture_throughput_mbps(double ghz) const {
    if (probes.elapsed_cycles == 0) return 0.0;
    const double seconds =
        static_cast<double>(probes.elapsed_cycles) / (ghz * 1e9);
    return static_cast<double>(captured_events) / seconds / 1e6;
  }
};

/// The reference genome and seed index a spy of `config` maps against. A
/// pure function of config's seed, genome_length and table less its
/// striping fields (entry_bytes, row_bytes, table_row), so every spy alive
/// at once with equal values of those (its bank count may differ) shares
/// one build; the build is freed with its last holder.
[[nodiscard]] std::shared_ptr<const genomics::IndexedReference>
shared_reference(const SideChannelConfig& config);

/// References shared_reference has built so far in this process (a test
/// hook: sharing shows as builds not made).
[[nodiscard]] std::size_t reference_builds();

/// The victim's reads of a spy of `config`, drawn from `genome`.
[[nodiscard]] std::vector<genomics::Read> victim_reads(
    const SideChannelConfig& config, const genomics::Genome& genome);

/// The victim's mapping of its read batch, for no device in particular:
/// each touch names its bucket or reference position and leaves its
/// location unset, so spies of every bank count replay the same plan.
struct VictimPlan {
  /// The reference the reads are sampled from and mapped against; holding
  /// a plan keeps it alive.
  std::shared_ptr<const genomics::IndexedReference> reference;
  std::vector<genomics::MemoryTouch> touches;
  std::vector<std::uint32_t> touch_read;    ///< Read index per touch.
  std::vector<std::size_t> read_positions;  ///< True locus per read.
  std::size_t mapped_ok = 0;  ///< Reads mapped within 5 bases of their locus.
};

/// The victim plan of a spy of `config`: a pure function of the
/// shared_reference key, reads, readsim, mapper and 4 * table.row_bytes
/// (the bases of one reference row; a spy requires table.row_bytes to
/// equal its device's row size). Nothing in it depends on the bank count,
/// so live spies that differ only in banks, the camouflage and timing
/// fields or attacker_row share one build; the build is freed with its
/// last holder.
[[nodiscard]] std::shared_ptr<const VictimPlan> shared_victim_plan(
    const SideChannelConfig& config);

/// Plans shared_victim_plan has built so far in this process (a test hook,
/// like reference_builds).
[[nodiscard]] std::size_t victim_plan_builds();

class ReadMappingSpy {
 public:
  /// Throws std::invalid_argument for fewer than 16 banks, no reads, or a
  /// table.row_bytes other than the device's row size.
  explicit ReadMappingSpy(SideChannelConfig config = {});

  /// Runs the full co-simulation: victim maps its reads while the attacker
  /// sweeps all banks; returns throughput/error/precision accounting. The
  /// victim's mapping is the shared plan (shared_victim_plan), acquired
  /// here and held by the spy. A spy runs once: run() maps the attacker's
  /// probe rows, so a second call throws std::invalid_argument (build a
  /// new spy instead; it shares the reference and the plan).
  SideChannelResult run();

  [[nodiscard]] const sys::SystemConfig& system_config() const {
    return system_config_;
  }

  /// The shared seed table (for the inference stage and for tests).
  [[nodiscard]] const genomics::SeedTable& table() const { return *table_; }
  [[nodiscard]] std::size_t reference_bases() const {
    return reference_->genome.size();
  }
  /// The spy's shared reference: holding it keeps the build alive for the
  /// next spy of the same reference (see shared_reference).
  [[nodiscard]] const std::shared_ptr<const genomics::IndexedReference>&
  reference() const {
    return reference_;
  }
  /// Where the reference's rows sit on this spy's device.
  [[nodiscard]] const genomics::ReferenceLayout& layout() const {
    return layout_;
  }
  /// The victim plan the last run() replayed (null before the first run):
  /// holding it keeps the plan and its reference alive for the next spy.
  [[nodiscard]] const std::shared_ptr<const VictimPlan>& plan() const {
    return plan_;
  }
  /// The plan's touches located on this device (empty before run()).
  [[nodiscard]] const std::vector<genomics::MemoryTouch>& victim_trace()
      const {
    return victim_trace_;
  }

 private:
  /// One victim PiM offload (seed probe or reference fetch).
  void victim_step(std::size_t touch_index);
  /// One attacker probe of `bank`; returns the decision (true = touched).
  bool attacker_probe(std::uint32_t bank);
  void calibrate();
  double measure_probe(std::uint32_t bank);
  sys::VAddr victim_vaddr(const genomics::TableLocation& loc);

  SideChannelConfig config_;
  sys::SystemConfig system_config_;
  std::unique_ptr<sys::MemorySystem> system_;
  std::shared_ptr<const genomics::IndexedReference> reference_;
  std::unique_ptr<genomics::SeedTable> table_;  ///< Striped over banks.
  genomics::ReferenceLayout layout_;
  std::shared_ptr<const VictimPlan> plan_;
  std::vector<genomics::MemoryTouch> victim_trace_;  ///< plan_'s, located.

  std::unique_ptr<pim::PeiDispatcher> victim_pei_;
  std::unique_ptr<pim::PeiDispatcher> attacker_pei_;
  std::vector<sys::VAddr> attacker_rows_;
  sys::VSpan bookkeeping_span_{};
  double jitter_scale_ = 1.0;
  std::unordered_map<std::uint64_t, sys::VAddr> victim_rows_;
  util::Xoshiro256 rng_;
  double threshold_ = 0.0;

  util::Cycle victim_clock_ = 0;
  util::Cycle attacker_clock_ = 0;
};

}  // namespace impact::attacks
