// Tests of the content-addressed experiment cache (src/store/): crash
// recovery (SIGKILL a disk-cached grid mid-sweep, rerun it on the same
// store, pin bit-identity against an uninterrupted run), fingerprint
// canonicalization (order-insensitivity, type tags, schema salt, the golden
// pin), byte-stable record serialization, ResultCache backends (memory,
// disk, corruption handling), WorkloadStore interning, and the CellRunner
// warm-path contract — warm grids bit-identical to cold, serial and
// parallel, with the verify mode aborting on a lying cache.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "store/cell_runner.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace impact {
namespace {

graph::MultiprogConfig tiny_config() {
  graph::MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 8192;
  config.system.cache_scale = 2048;
  return config;
}

/// A fully-populated record: payload plus every snapshot section.
store::Record sample_record() {
  store::Record rec;
  rec.fp = {0x0123456789abcdefull, 0xfedcba9876543210ull};
  rec.label = "cell with spaces\nand a newline";
  graph::RunStats stats;
  stats.cycles = 123456789;
  stats.instructions = 42;
  stats.accesses = 7;
  stats.llc_misses = 3;
  stats.row_hit_rate = 0.61803398874989484820;
  rec.payload = store::encode(stats);
  rec.snapshot.counters["graph.replay.accesses"] = 1234;
  rec.snapshot.counters["graph.replay.instructions"] = 5678;
  rec.snapshot.gauges["graph.row_hit_rate"] = -0.25;
  util::Histogram h(0.0, 64.0, 4);
  h.add(1.0);
  h.add(65.0);  // Overflow bucket.
  h.add(-1.0);  // Underflow bucket.
  rec.snapshot.dists.emplace("dram.latency", h);
  return rec;
}

// --- Crash recovery through the store alone -----------------------------
//
// A child process runs a disk-cached CellRunner grid and SIGKILLs itself
// mid-sweep (deterministically: the victim cell first waits until the
// store directory holds at least one published .rec file, so the rerun
// always has something to hit). A second child with the same store reruns
// the grid and must retire the same cells with the same bytes as an
// uninterrupted reference run. Defined first in this file so no earlier
// in-process test has started (and joined) threads before the forks; gtest
// runs only the death test ahead of it, which starts none in this process.

namespace fs = std::filesystem;

constexpr std::size_t kTortureCells = 8;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("store_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_records(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    n += entry.path().extension() == ".rec" ? 1 : 0;
  }
  return n;
}

store::Fingerprint torture_fingerprint(std::size_t i) {
  store::Canon c;
  c.field("cell", "store.torture");
  c.field("i", static_cast<std::uint64_t>(i));
  return c.fingerprint();
}

/// Runs the torture grid in the calling (child) process and writes a diag
/// file: "tasks completed failed skipped cache_hits\n" followed by the
/// rendered rows. `kill_at >= 0` makes that cell SIGKILL the process on
/// the first run only (a marker file distinguishes runs).
void child_run_grid(const fs::path& base, unsigned pool_threads, int kill_at,
                    const fs::path& diag) {
  store::ResultCache::Options cache_options;
  cache_options.disk_dir = (base / "store").string();
  store::ResultCache cache(cache_options);
  store::WorkloadStore workloads;
  std::unique_ptr<exec::ThreadPool> pool;
  if (pool_threads > 1) {
    pool = std::make_unique<exec::ThreadPool>(pool_threads);
  }
  store::CellRunner runner(cache, workloads, pool.get());

  const fs::path marker = base / "killed";
  const auto result = runner.rows(
      "store.torture", kTortureCells, torture_fingerprint,
      [&](std::size_t i) {
        if (kill_at >= 0 && i == static_cast<std::size_t>(kill_at) &&
            !fs::exists(marker)) {
          { std::ofstream out(marker); out << "1\n"; }
          // Guarantee the rerun has history: wait for one published
          // record before dying. Serial runs already stored every earlier
          // cell; parallel runs wait out their siblings.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (count_records(base / "store") == 0 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          (void)::raise(SIGKILL);
        }
        return std::vector<std::string>{std::to_string(i),
                                        std::to_string(i * i + 7)};
      });

  std::ofstream out(diag, std::ios::binary);
  out << result.report.tasks << ' ' << result.report.completed << ' '
      << result.report.failed << ' ' << result.report.skipped << ' '
      << result.report.cache_hits << '\n';
  for (const auto& row : result.rows) {
    for (const auto& cell : row) out << cell << '\x1f';
    out << '\n';
  }
}

/// Forks, runs the grid in the child, and returns the child's wait status.
int spawn_grid(const fs::path& base, unsigned pool_threads, int kill_at,
               const fs::path& diag) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    child_run_grid(base, pool_threads, kill_at, diag);
    ::_exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  return status;
}

struct DiagOutcome {
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t cache_hits = 0;
  std::string rows;
};

DiagOutcome parse_diag(const fs::path& diag) {
  DiagOutcome out;
  const std::string bytes = read_file(diag);
  std::istringstream in(bytes);
  in >> out.tasks >> out.completed >> out.failed >> out.skipped >>
      out.cache_hits;
  const auto newline = bytes.find('\n');
  if (newline != std::string::npos) out.rows = bytes.substr(newline + 1);
  return out;
}

TEST(StoreKillTorture, RerunAfterKillReproducesUninterruptedRun) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool threads = " + std::to_string(threads));
    const fs::path ref_base = fresh_dir("ref" + std::to_string(threads));
    const fs::path base = fresh_dir("tort" + std::to_string(threads));

    // Uninterrupted reference (own store).
    const int ref_status =
        spawn_grid(ref_base, threads, -1, ref_base / "diag");
    ASSERT_TRUE(WIFEXITED(ref_status) && WEXITSTATUS(ref_status) == 0);
    const DiagOutcome ref = parse_diag(ref_base / "diag");
    ASSERT_EQ(ref.tasks, kTortureCells);
    ASSERT_EQ(ref.completed, kTortureCells);
    ASSERT_EQ(ref.cache_hits, 0u);

    // Victim: dies by SIGKILL mid-sweep, after >= 1 published record.
    const int killed_status = spawn_grid(base, threads, 3, base / "unused");
    ASSERT_TRUE(WIFSIGNALED(killed_status));
    ASSERT_EQ(WTERMSIG(killed_status), SIGKILL);
    ASSERT_FALSE(fs::exists(base / "unused")) << "victim wrote its diag";
    ASSERT_GE(count_records(base / "store"), 1u);
    ASSERT_LT(count_records(base / "store"), kTortureCells);

    // Rerun with the same store: the grid must finish and be bit-identical
    // to the reference (cache_hits legitimately differs — it describes
    // *how* cells were satisfied, not the result).
    const int rerun_status = spawn_grid(base, threads, 3, base / "diag");
    ASSERT_TRUE(WIFEXITED(rerun_status) && WEXITSTATUS(rerun_status) == 0);
    const DiagOutcome rerun = parse_diag(base / "diag");
    EXPECT_EQ(rerun.tasks, ref.tasks);
    EXPECT_EQ(rerun.completed, ref.completed);
    EXPECT_EQ(rerun.failed, ref.failed);
    EXPECT_EQ(rerun.skipped, ref.skipped);
    EXPECT_EQ(rerun.rows, ref.rows);
    EXPECT_GE(rerun.cache_hits, 1u)
        << "the rerun replayed nothing from the store";

    fs::remove_all(ref_base);
    fs::remove_all(base);
  }
}

// --- Fingerprints -------------------------------------------------------

TEST(Fingerprint, HexRoundTrip) {
  const store::Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string hex = fp.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  store::Fingerprint back;
  ASSERT_TRUE(store::Fingerprint::from_hex(hex, &back));
  EXPECT_EQ(back, fp);
}

TEST(Fingerprint, FromHexRejectsMalformedInput) {
  store::Fingerprint out{1, 2};
  EXPECT_FALSE(store::Fingerprint::from_hex("", &out));
  EXPECT_FALSE(store::Fingerprint::from_hex("0123", &out));
  EXPECT_FALSE(
      store::Fingerprint::from_hex("0123456789abcdeffedcba987654321G", &out));
  EXPECT_FALSE(store::Fingerprint::from_hex(
      "0123456789abcdeffedcba9876543210ff", &out));
  // Untouched on failure.
  EXPECT_EQ(out.hi, 1u);
  EXPECT_EQ(out.lo, 2u);
}

TEST(Canon, FieldOrderDoesNotChangeFingerprint) {
  store::Canon a;
  a.field("seed", std::uint64_t{99});
  a.field("scale", std::uint32_t{15});
  a.field("policy", "open_row");
  store::Canon b;
  b.field("policy", "open_row");
  b.field("scale", std::uint32_t{15});
  b.field("seed", std::uint64_t{99});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Canon, TypeTagsKeepEqualTextDistinct) {
  store::Canon as_uint;
  as_uint.field("x", std::uint64_t{1});
  store::Canon as_string;
  as_string.field("x", "1");
  store::Canon as_double;
  as_double.field("x", 1.0);
  store::Canon as_bool;
  as_bool.field("x", true);
  EXPECT_NE(as_uint.fingerprint(), as_string.fingerprint());
  EXPECT_NE(as_uint.fingerprint(), as_double.fingerprint());
  EXPECT_NE(as_uint.fingerprint(), as_bool.fingerprint());
  EXPECT_NE(as_string.fingerprint(), as_double.fingerprint());
}

TEST(Canon, DuplicateFieldNameThrows) {
  store::Canon c;
  c.field("seed", std::uint64_t{1});
  c.field("seed", std::uint64_t{2});  // Detected at fingerprint time.
  EXPECT_THROW((void)c.fingerprint(), std::invalid_argument);
}

TEST(Canon, SchemaSaltBumpInvalidatesEveryFingerprint) {
  store::Canon current(store::kSchemaVersion);
  current.field("seed", std::uint64_t{99});
  store::Canon bumped(store::kSchemaVersion + 1);
  bumped.field("seed", std::uint64_t{99});
  EXPECT_NE(current.fingerprint(), bumped.fingerprint());
}

// Golden pin: this exact fingerprint must only ever change together with a
// kSchemaVersion bump. If this test fails and you did not bump the schema,
// you changed canonicalization (or a config default) in a way that silently
// re-addresses every cached record — bump store::kSchemaVersion.
TEST(Canon, GoldenFingerprintPinsCanonicalization) {
  ASSERT_EQ(store::kSchemaVersion, 2u);
  const auto fp = store::matrix_cell_fingerprint(
      graph::MultiprogConfig{}, graph::WorkloadKind::kBFS,
      dram::RowPolicy::kOpenRow);
  EXPECT_EQ(fp.hex(), "3e29ce83e1a030d7abdcfdc57f02a62e");
}

// The defaults above give trcd_ns, trp_ns and tcas_ns one value, so a
// canon_of that swapped two of them would still hash the same. Here every
// field holds its own non-default value: a swap of any two fields, or a
// changed name or tag, moves these pins.
TEST(Canon, GoldenFingerprintOfDistinctFieldValues) {
  ASSERT_EQ(store::kSchemaVersion, 2u);
  graph::MultiprogConfig config;
  sys::SystemConfig& s = config.system;
  s.freq_ghz = 2.9;
  s.cores = 6;
  s.dram.channels = 2;
  s.dram.ranks = 3;
  s.dram.banks_per_rank = 5;
  s.dram.rows_per_bank = 32768;
  s.dram.row_bytes = 4096;
  s.dram.subarray_rows = 256;
  s.dram.policy = dram::RowPolicy::kClosedRow;
  s.dram.timing = {.trcd_ns = 14.0,
                   .trp_ns = 15.0,
                   .tras_ns = 33.0,
                   .tcas_ns = 16.0,
                   .tbl_ns = 3.5,
                   .row_timeout_ns = 101.0,
                   .rowclone_fpm_ns = 91.0,
                   .timeout_mode = dram::RowTimeoutMode::kIdlePrecharge,
                   .trefi_ns = 7801.0,
                   .trfc_ns = 351.0};
  s.dram.freq = util::Frequency{3.1};
  s.mapping = dram::MappingScheme::kXorBankHash;
  s.llc_bytes = 3ull << 20;
  s.llc_ways = 12;
  s.cache_scale = 128;
  s.prefetchers = false;
  s.tlb = {.l1 = {48, 7, 9},
           .l1_huge = {24, 11, 13},
           .l2 = {1024, 17, 19},
           .walk_latency = 81,
           .page_bits = 23,
           .huge_page_bits = 29};
  s.timer = {.rdtscp_cost = 31, .cpuid_cost = 37};
  s.dma = {.per_transfer_overhead = 331};
  s.seed = 43;
  config.rmat_scale = 14;
  config.edge_count = 100000;
  config.graph_seed = 98;
  EXPECT_EQ(store::canon_of(config).fingerprint().hex(),
            "c6886d1cb18b5d78efff43a0cc758dd1");

  const std::vector<fault::FaultConfig> faults = {
      {fault::FaultKind::kClockDrift, 0.03, 401, 7, 9001},
      {fault::FaultKind::kSemaphoreDelay, 0.04, 402, 8, 9002},
  };
  EXPECT_EQ(store::canon_of(std::span<const fault::FaultConfig>(faults))
                .fingerprint()
                .hex(),
            "183567a9d1d37a81f73464bc8bbc9666");
}

/// One field of a config struct, changed to a value its default is not.
template <typename Config>
struct FieldChange {
  const char* field;
  void (*apply)(Config&);
};

/// Every field of sys::SystemConfig and of the structs nested in it
/// (DramConfig, TimingParams, TlbConfig, TimerConfig, DmaConfig).
const FieldChange<sys::SystemConfig> kSystemFields[] = {
    {"freq_ghz", [](sys::SystemConfig& s) { s.freq_ghz = 3.0; }},
    {"cores", [](sys::SystemConfig& s) { s.cores = 8; }},
    {"dram.channels", [](sys::SystemConfig& s) { s.dram.channels = 2; }},
    {"dram.ranks", [](sys::SystemConfig& s) { s.dram.ranks = 2; }},
    {"dram.banks_per_rank",
     [](sys::SystemConfig& s) { s.dram.banks_per_rank = 8; }},
    {"dram.rows_per_bank",
     [](sys::SystemConfig& s) { s.dram.rows_per_bank = 32768; }},
    {"dram.row_bytes", [](sys::SystemConfig& s) { s.dram.row_bytes = 4096; }},
    {"dram.subarray_rows",
     [](sys::SystemConfig& s) { s.dram.subarray_rows = 256; }},
    {"dram.policy",
     [](sys::SystemConfig& s) { s.dram.policy = dram::RowPolicy::kClosedRow; }},
    {"dram.timing.trcd_ns",
     [](sys::SystemConfig& s) { s.dram.timing.trcd_ns += 1.0; }},
    {"dram.timing.trp_ns",
     [](sys::SystemConfig& s) { s.dram.timing.trp_ns += 1.0; }},
    {"dram.timing.tras_ns",
     [](sys::SystemConfig& s) { s.dram.timing.tras_ns += 1.0; }},
    {"dram.timing.tcas_ns",
     [](sys::SystemConfig& s) { s.dram.timing.tcas_ns += 1.0; }},
    {"dram.timing.tbl_ns",
     [](sys::SystemConfig& s) { s.dram.timing.tbl_ns += 1.0; }},
    {"dram.timing.row_timeout_ns",
     [](sys::SystemConfig& s) { s.dram.timing.row_timeout_ns += 1.0; }},
    {"dram.timing.rowclone_fpm_ns",
     [](sys::SystemConfig& s) { s.dram.timing.rowclone_fpm_ns += 1.0; }},
    {"dram.timing.timeout_mode",
     [](sys::SystemConfig& s) {
       s.dram.timing.timeout_mode = dram::RowTimeoutMode::kIdlePrecharge;
     }},
    {"dram.timing.trefi_ns",
     [](sys::SystemConfig& s) { s.dram.timing.trefi_ns = 7800.0; }},
    {"dram.timing.trfc_ns",
     [](sys::SystemConfig& s) { s.dram.timing.trfc_ns += 1.0; }},
    {"dram.freq",
     [](sys::SystemConfig& s) { s.dram.freq = util::Frequency{3.2}; }},
    {"mapping",
     [](sys::SystemConfig& s) {
       s.mapping = dram::MappingScheme::kXorBankHash;
     }},
    {"llc_bytes", [](sys::SystemConfig& s) { s.llc_bytes *= 2; }},
    {"llc_ways", [](sys::SystemConfig& s) { s.llc_ways = 8; }},
    {"cache_scale", [](sys::SystemConfig& s) { s.cache_scale *= 2; }},
    {"prefetchers", [](sys::SystemConfig& s) { s.prefetchers = false; }},
    {"tlb.l1.entries", [](sys::SystemConfig& s) { s.tlb.l1.entries *= 2; }},
    {"tlb.l1.ways", [](sys::SystemConfig& s) { s.tlb.l1.ways *= 2; }},
    {"tlb.l1.latency", [](sys::SystemConfig& s) { s.tlb.l1.latency += 1; }},
    {"tlb.l1_huge.entries",
     [](sys::SystemConfig& s) { s.tlb.l1_huge.entries *= 2; }},
    {"tlb.l1_huge.ways",
     [](sys::SystemConfig& s) { s.tlb.l1_huge.ways *= 2; }},
    {"tlb.l1_huge.latency",
     [](sys::SystemConfig& s) { s.tlb.l1_huge.latency += 1; }},
    {"tlb.l2.entries", [](sys::SystemConfig& s) { s.tlb.l2.entries *= 2; }},
    {"tlb.l2.ways", [](sys::SystemConfig& s) { s.tlb.l2.ways *= 2; }},
    {"tlb.l2.latency", [](sys::SystemConfig& s) { s.tlb.l2.latency += 1; }},
    {"tlb.walk_latency",
     [](sys::SystemConfig& s) { s.tlb.walk_latency += 1; }},
    {"tlb.page_bits", [](sys::SystemConfig& s) { s.tlb.page_bits += 1; }},
    {"tlb.huge_page_bits",
     [](sys::SystemConfig& s) { s.tlb.huge_page_bits += 1; }},
    {"timer.rdtscp_cost",
     [](sys::SystemConfig& s) { s.timer.rdtscp_cost += 1; }},
    {"timer.cpuid_cost",
     [](sys::SystemConfig& s) { s.timer.cpuid_cost += 1; }},
    {"dma.per_transfer_overhead",
     [](sys::SystemConfig& s) { s.dma.per_transfer_overhead += 1; }},
    {"seed", [](sys::SystemConfig& s) { s.seed += 1; }},
};

/// MultiprogConfig's own fields; `system` is covered by kSystemFields.
const FieldChange<graph::MultiprogConfig> kGraphFields[] = {
    {"graph_seed", [](graph::MultiprogConfig& c) { c.graph_seed += 1; }},
    {"rmat_scale", [](graph::MultiprogConfig& c) { c.rmat_scale += 1; }},
    {"edge_count", [](graph::MultiprogConfig& c) { c.edge_count += 1; }},
};

const FieldChange<fault::FaultConfig> kFaultFields[] = {
    {"kind",
     [](fault::FaultConfig& f) { f.kind = fault::FaultKind::kClockDrift; }},
    {"probability", [](fault::FaultConfig& f) { f.probability += 0.01; }},
    {"magnitude", [](fault::FaultConfig& f) { f.magnitude += 1; }},
    {"window_begin", [](fault::FaultConfig& f) { f.window_begin += 1; }},
    {"window_end", [](fault::FaultConfig& f) { f.window_end -= 1; }},
};

/// Collects fingerprints and reports the first field whose fingerprint
/// equals an earlier one (the unchanged reference included).
class DistinctFingerprints {
 public:
  void add(const std::string& field, const store::Fingerprint& fp) {
    const auto [it, inserted] = seen_.emplace(fp, field);
    EXPECT_TRUE(inserted) << field << " aliases " << it->second;
  }

 private:
  std::map<store::Fingerprint, std::string> seen_;
};

// Flips every field of each config struct in turn: each must change the
// cell fingerprint, and no two changes may give the same one.
TEST(CanonOf, EveryInputChangeChangesTheFingerprint) {
  const graph::MultiprogConfig base = tiny_config();
  const auto fp = [](const graph::MultiprogConfig& c) {
    return store::matrix_cell_fingerprint(c, graph::WorkloadKind::kBFS,
                                          dram::RowPolicy::kOpenRow);
  };
  DistinctFingerprints cells;
  cells.add("(unchanged)", fp(base));
  for (const auto& change : kSystemFields) {
    graph::MultiprogConfig config = base;
    change.apply(config.system);
    cells.add(std::string("system.") + change.field, fp(config));
  }
  for (const auto& change : kGraphFields) {
    graph::MultiprogConfig config = base;
    change.apply(config);
    cells.add(change.field, fp(config));
  }
  // Workload and policy.
  cells.add("workload",
            store::matrix_cell_fingerprint(base, graph::WorkloadKind::kPR,
                                           dram::RowPolicy::kOpenRow));
  cells.add("policy",
            store::matrix_cell_fingerprint(base, graph::WorkloadKind::kBFS,
                                           dram::RowPolicy::kClosedRow));

  const fault::FaultConfig fault{fault::FaultKind::kDramJitter, 0.01, 400,
                                 0, ~0ull};
  DistinctFingerprints faults;
  faults.add("(unchanged)", store::canon_of(fault).fingerprint());
  for (const auto& change : kFaultFields) {
    fault::FaultConfig changed = fault;
    change.apply(changed);
    faults.add(change.field, store::canon_of(changed).fingerprint());
  }
}

// A workload input depends on the graph fields and the kernel only, so
// every policy and system variant of a grid shares one build: each graph
// field and the kind add an input to the store, no system field does.
TEST(WorkloadFingerprint, CoversTheGraphInputsAndNothingInSystem) {
  const graph::MultiprogConfig base = tiny_config();
  store::WorkloadStore workloads;
  const graph::WorkloadInput* reference =
      workloads.get(base, graph::WorkloadKind::kBFS);
  std::size_t inputs = 1;
  for (const auto& change : kGraphFields) {
    graph::MultiprogConfig config = base;
    change.apply(config);
    (void)workloads.get(config, graph::WorkloadKind::kBFS);
    EXPECT_EQ(workloads.size(), ++inputs) << change.field;
  }
  (void)workloads.get(base, graph::WorkloadKind::kPR);
  EXPECT_EQ(workloads.size(), ++inputs) << "kind";
  for (const auto& change : kSystemFields) {
    graph::MultiprogConfig config = base;
    change.apply(config.system);
    EXPECT_EQ(workloads.get(config, graph::WorkloadKind::kBFS), reference)
        << "system." << change.field;
  }
  EXPECT_EQ(workloads.size(), inputs);
}

TEST(CanonOf, FaultProfilesAreOrderSensitiveAndValueSensitive) {
  const std::vector<fault::FaultConfig> faults = {
      {fault::FaultKind::kDramJitter, 0.01, 400, 0, ~0ull},
      {fault::FaultKind::kSemaphoreDrop, 0.05, 0, 0, ~0ull},
  };
  const auto fp_of = [](const std::vector<fault::FaultConfig>& f) {
    store::Canon c;
    c.object("faults",
             store::canon_of(std::span<const fault::FaultConfig>(f)));
    return c.fingerprint();
  };
  const auto reference = fp_of(faults);

  auto tweaked = faults;
  tweaked[0].probability = 0.02;
  EXPECT_NE(fp_of(tweaked), reference);

  tweaked = faults;
  tweaked[1].window_end = 1000;
  EXPECT_NE(fp_of(tweaked), reference);

  // The injector consults configs in list order, so order is semantic.
  const std::vector<fault::FaultConfig> swapped = {faults[1], faults[0]};
  EXPECT_NE(fp_of(swapped), reference);

  const std::vector<fault::FaultConfig> shorter = {faults[0]};
  EXPECT_NE(fp_of(shorter), reference);
}

// --- Records ------------------------------------------------------------

TEST(Record, SerializeParseSerializeIsByteStable) {
  const store::Record rec = sample_record();
  const std::string bytes = store::serialize(rec);
  const auto parsed = store::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fp, rec.fp);
  EXPECT_EQ(parsed->label, rec.label);
  EXPECT_EQ(parsed->payload, rec.payload);
  EXPECT_EQ(parsed->snapshot.counters, rec.snapshot.counters);
  EXPECT_EQ(parsed->snapshot.gauges, rec.snapshot.gauges);
  // Byte stability: re-serializing the parsed record reproduces the exact
  // bytes — the property the verify mode's one-line comparison rests on.
  EXPECT_EQ(store::serialize(*parsed), bytes);
}

TEST(Record, ParseRejectsCorruption) {
  const std::string bytes = store::serialize(sample_record());
  EXPECT_FALSE(store::parse("").has_value());
  EXPECT_FALSE(store::parse("not a record").has_value());
  // Truncations at every section boundary-ish prefix.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{10}}) {
    EXPECT_FALSE(store::parse(bytes.substr(0, keep)).has_value())
        << "prefix of " << keep << " bytes";
  }
  // Trailing garbage is rejected too: records are exact, not prefixed.
  EXPECT_FALSE(store::parse(bytes + "x").has_value());
  const auto replaced = [&](std::string_view from, std::string_view to) {
    std::string out = bytes;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  // A leading zero, and a value past 2^64 - 1.
  EXPECT_FALSE(store::parse(replaced(" 1234\n", " 01234\n")).has_value());
  EXPECT_FALSE(store::parse(replaced(" 1234\n", " 18446744073709551616\n"))
                   .has_value());
  EXPECT_TRUE(store::parse(replaced(" 1234\n", " 18446744073709551615\n"))
                  .has_value());
  // Counter names out of order, and a duplicate.
  EXPECT_FALSE(store::parse(replaced("graph.replay.accesses",
                                     "graph.replay.zccesses"))
                   .has_value());
  EXPECT_FALSE(store::parse(replaced("21:graph.replay.accesses 1234",
                                     "25:graph.replay.instructions 1234"))
                   .has_value());
  // A flipped fingerprint digit parses (it is still well-formed); the
  // cache layer catches the fp mismatch instead — see
  // ResultCache.CorruptDiskRecordDegradesToMiss.
}

// Deterministic mutation fuzzing of the record parser: byte flips,
// inserts, deletes and truncations of a valid record, drawn from a fixed
// seed. parse() must never crash, and a record it accepts must be the
// canonical encoding of what it returns: serialize(parse(b)) == b.
TEST(Record, MutatedRecordsAreRejectedOrCanonical) {
  const std::string valid = store::serialize(sample_record());
  // Half the new bytes come from the record's own alphabet, so edits
  // often keep a field well-formed and reach the parser's deeper checks.
  constexpr std::string_view kAlphabet = "0123456789abcdef :\ncgd";
  util::Xoshiro256 rng(0x5eed);
  const auto some_byte = [&] {
    return rng.below(2) == 0
               ? kAlphabet[rng.below(kAlphabet.size())]
               : static_cast<char>(rng.below(256));
  };
  std::size_t accepted = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string bytes = valid;
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t at = rng.below(bytes.size());
      switch (rng.below(4)) {
        case 0:  // Flip: replace the byte with a different one.
          bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.below(255)));
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                       some_byte());
          break;
        case 2:
          bytes.erase(at, 1);
          break;
        default:
          bytes.resize(at);
          break;
      }
    }
    const auto parsed = store::parse(bytes);
    if (!parsed.has_value()) continue;
    ++accepted;
    ASSERT_EQ(store::serialize(*parsed), bytes) << "iteration " << iteration;
  }
  // Edits inside the label's text or the fingerprint's digits keep the
  // record valid, so some mutants must have been accepted and compared.
  EXPECT_GT(accepted, 0u);
}

TEST(Record, RunStatsCodecRoundTripsBitwise) {
  graph::RunStats stats;
  stats.cycles = ~0ull;
  stats.instructions = 1;
  stats.accesses = 0;
  stats.llc_misses = 987654321;
  stats.row_hit_rate = 0.1 + 0.2;  // A value with an inexact decimal form.
  const auto back = store::decode_run_stats(store::encode(stats));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, stats);  // operator== is bitwise on row_hit_rate.
  EXPECT_FALSE(store::decode_run_stats("garbage").has_value());
}

TEST(Record, RowCodecRoundTripsArbitraryCells) {
  const std::vector<std::string> row = {
      "", "plain", "with spaces", "12:34", std::string("nul\0byte", 8),
      "newline\nand\ttab"};
  const auto back = store::decode_row(store::encode_row(row));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, row);
  EXPECT_FALSE(store::decode_row("5:short").has_value());
}

// --- ResultCache --------------------------------------------------------

TEST(ResultCache, MemoryHitMissAndStats) {
  store::ResultCache cache;
  const store::Record rec = sample_record();
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());
  EXPECT_FALSE(cache.contains(rec.fp));
  cache.store(rec);
  EXPECT_TRUE(cache.contains(rec.fp));
  std::string raw;
  const auto hit = cache.lookup(rec.fp, &raw);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, rec.payload);
  EXPECT_EQ(raw, store::serialize(rec));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stored, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
}

TEST(ResultCache, DisabledCacheNeverHitsNorStores) {
  store::ResultCache::Options options;
  options.enabled = false;
  store::ResultCache cache(options);
  const store::Record rec = sample_record();
  cache.store(rec);
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());
  EXPECT_FALSE(cache.contains(rec.fp));
  EXPECT_EQ(cache.stats().stored, 0u);
}

class ScratchDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("impact_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ScratchDir, DiskBackendSurvivesAcrossCacheInstances) {
  const store::Record rec = sample_record();
  store::ResultCache::Options options;
  options.disk_dir = dir_.string();
  {
    store::ResultCache writer(options);
    writer.store(rec);
  }
  store::ResultCache reader(options);
  EXPECT_TRUE(reader.contains(rec.fp));
  const auto hit = reader.lookup(rec.fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(store::serialize(*hit), store::serialize(rec));
  const auto stats = reader.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  // The on-disk file is the canonical bytes, named by the fingerprint.
  std::ifstream in(dir_ / (rec.fp.hex() + ".rec"), std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, store::serialize(rec));
}

TEST_F(ScratchDir, DiskWritesAreFsyncedBeforeRename) {
  store::ResultCache::Options options;
  options.disk_dir = dir_.string();
  store::ResultCache cache(options);
  cache.store(sample_record());

  // Data fsync + directory fsync per disk write; the temp file is gone.
  EXPECT_GE(cache.stats().fsyncs, 2u);
  bool tmp_left = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    tmp_left = tmp_left || entry.path().extension() == ".tmp";
  }
  EXPECT_FALSE(tmp_left);
}

TEST_F(ScratchDir, CorruptDiskRecordDegradesToMiss) {
  const store::Record rec = sample_record();
  store::ResultCache::Options options;
  options.disk_dir = dir_.string();
  store::ResultCache cache(options);

  // Garbage under the right name: parse fails -> rejected, not a crash.
  {
    std::ofstream out(dir_ / (rec.fp.hex() + ".rec"), std::ios::binary);
    out << "garbage bytes";
  }
  EXPECT_FALSE(cache.lookup(rec.fp).has_value());

  // A well-formed record filed under the WRONG fingerprint: the embedded
  // fp disagrees with the name, so the cache must reject it too.
  const store::Fingerprint other{1, 2};
  {
    std::ofstream out(dir_ / (other.hex() + ".rec"), std::ios::binary);
    out << store::serialize(rec);
  }
  EXPECT_FALSE(cache.lookup(other).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// --- WorkloadStore ------------------------------------------------------

TEST(WorkloadStore, InternsByInputFingerprint) {
  const graph::MultiprogConfig config = tiny_config();
  store::WorkloadStore workloads;
  const auto* a = workloads.get(config, graph::WorkloadKind::kBFS);
  const auto* b = workloads.get(config, graph::WorkloadKind::kBFS);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b) << "same graph inputs and kind must share one build";
  EXPECT_EQ(workloads.size(), 1u);

  // A system-config change does NOT reach graph::build_input, so it must
  // not re-build the interned input either.
  graph::MultiprogConfig system_only = config;
  system_only.system.cache_scale = 4096;
  EXPECT_EQ(workloads.get(system_only, graph::WorkloadKind::kBFS), a);
  EXPECT_EQ(workloads.size(), 1u);

  // Seed and kind changes do.
  graph::MultiprogConfig reseeded = config;
  reseeded.graph_seed = 1234;
  EXPECT_NE(workloads.get(reseeded, graph::WorkloadKind::kBFS), a);
  EXPECT_NE(workloads.get(config, graph::WorkloadKind::kPR), a);
  EXPECT_EQ(workloads.size(), 3u);
}

// --- CellRunner ---------------------------------------------------------

constexpr dram::RowPolicy kTwoPolicies[] = {dram::RowPolicy::kOpenRow,
                                            dram::RowPolicy::kClosedRow};
constexpr dram::RowPolicy kThreePolicies[] = {dram::RowPolicy::kOpenRow,
                                              dram::RowPolicy::kClosedRow,
                                              dram::RowPolicy::kConstantTime};
constexpr graph::WorkloadKind kTwoKinds[] = {graph::WorkloadKind::kBFS,
                                             graph::WorkloadKind::kPR};

TEST(CellRunner, WarmDefenseMatrixIsBitIdenticalSerialAndParallel) {
  const graph::MultiprogConfig config = tiny_config();
  store::ResultCache cache;
  store::WorkloadStore workloads;

  store::CellRunner cold_runner(cache, workloads, nullptr);
  const auto cold = cold_runner.defense_matrix(config, kTwoKinds, kTwoPolicies);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.report.cache_hits, 0u);
  EXPECT_EQ(cold.report.cache_stored, 4u);

  const auto expect_identical = [&](const store::CellRunner::MatrixResult& r,
                                    const char* what) {
    ASSERT_TRUE(r.ok()) << what;
    // 4 policy cells + 2 build tasks, all probe-satisfied when fully warm.
    EXPECT_EQ(r.report.cache_hits, r.report.tasks) << what;
    EXPECT_EQ(r.report.cache_stored, 0u) << what;
    for (std::size_t w = 0; w < std::size(kTwoKinds); ++w) {
      for (std::size_t p = 0; p < std::size(kTwoPolicies); ++p) {
        EXPECT_TRUE(r.cells[w][p].cached) << what;
        EXPECT_EQ(r.cells[w][p].stats, cold.cells[w][p].stats) << what;
        EXPECT_EQ(r.cells[w][p].snapshot.counters,
                  cold.cells[w][p].snapshot.counters)
            << what;
      }
    }
  };

  store::CellRunner warm_serial(cache, workloads, nullptr);
  expect_identical(warm_serial.defense_matrix(config, kTwoKinds, kTwoPolicies),
                   "warm serial");
  exec::ThreadPool pool(4);
  store::CellRunner warm_pool(cache, workloads, &pool);
  expect_identical(warm_pool.defense_matrix(config, kTwoKinds, kTwoPolicies),
                   "warm pool(4)");
  // A fully warm grid builds no inputs beyond the cold run's two.
  EXPECT_EQ(workloads.size(), 2u);
}

TEST(CellRunner, ColdSnapshotsMatchSerialOnAPoolAndPassVerify) {
  // The determinism contract of the Fig. 11 grid: a cold grid on any pool
  // size gives the serial grid's RunStats cell for cell. Each input's
  // front end is recorded by whichever cell reaches it first and reused
  // by the others; every cell must still carry the full per-cell
  // telemetry, whatever the schedule.
  const graph::MultiprogConfig config = tiny_config();
  store::ResultCache serial_cache;
  store::WorkloadStore serial_workloads;
  store::CellRunner serial(serial_cache, serial_workloads, nullptr);
  const auto want =
      serial.defense_matrix(config, graph::kAllWorkloads, kThreePolicies);
  ASSERT_TRUE(want.ok());

  for (const unsigned threads : {1u, 2u, 8u}) {
    store::ResultCache::Options options;
    options.verify = true;
    store::ResultCache pool_cache(options);
    store::WorkloadStore pool_workloads;
    exec::ThreadPool pool(threads);
    store::CellRunner parallel(pool_cache, pool_workloads, &pool);
    const auto got =
        parallel.defense_matrix(config, graph::kAllWorkloads, kThreePolicies);
    ASSERT_TRUE(got.ok()) << threads << " thread(s)";
    EXPECT_EQ(got.report.cache_hits, 0u);
    for (std::size_t w = 0; w < std::size(graph::kAllWorkloads); ++w) {
      for (std::size_t p = 0; p < std::size(kThreePolicies); ++p) {
        const auto& cell = got.cells[w][p];
        EXPECT_FALSE(cell.cached);
        EXPECT_EQ(cell.stats, want.cells[w][p].stats)
            << "cell " << w << "," << p << " at " << threads << " thread(s)";
        EXPECT_EQ(cell.snapshot.counters, want.cells[w][p].snapshot.counters)
            << "cell " << w << "," << p << " at " << threads << " thread(s)";
        EXPECT_GT(cell.snapshot.counter("cache.l1.hits"), 0u);
        EXPECT_GT(cell.snapshot.counter("tlb.accesses"), 0u);
      }
    }

    // Verify mode re-simulates every cell (now on warm front ends) and
    // aborts on any byte of divergence from the cold records.
    const auto audit =
        parallel.defense_matrix(config, graph::kAllWorkloads, kThreePolicies);
    ASSERT_TRUE(audit.ok()) << threads << " thread(s)";
    EXPECT_EQ(audit.report.cache_hits, 0u);
    for (std::size_t w = 0; w < std::size(graph::kAllWorkloads); ++w) {
      for (std::size_t p = 0; p < std::size(kThreePolicies); ++p) {
        EXPECT_EQ(audit.cells[w][p].snapshot.counters,
                  want.cells[w][p].snapshot.counters);
      }
    }
  }
}

TEST(CellRunner, FailedInputBuildFailsTheGridWithTheSweepSummary) {
  auto config = tiny_config();
  config.rmat_scale = 0;  // Rejected by CsrGraph::rmat: every build fails.
  for (const unsigned threads : {0u, 2u}) {
    store::ResultCache cache;
    store::WorkloadStore workloads;
    exec::ThreadPool pool(threads == 0 ? 1 : threads);
    store::CellRunner runner(cache, workloads,
                             threads == 0 ? nullptr : &pool);
    const auto grid =
        runner.defense_matrix(config, graph::kAllWorkloads, kThreePolicies);
    EXPECT_FALSE(grid.ok()) << threads << " thread(s)";
    const std::string summary = grid.report.summary();
    EXPECT_NE(summary.find("0/20 tasks completed, 5 failed, 15 skipped"),
              std::string::npos)
        << summary;
  }
}

TEST(CellRunner, RowsReplayFromCacheWithoutRunningCells) {
  store::ResultCache cache;
  store::WorkloadStore workloads;
  std::atomic<int> runs{0};
  const auto fingerprint_of = [](std::size_t i) {
    store::Canon c;
    c.field("cell", "test.rows");
    c.field("i", static_cast<std::uint64_t>(i));
    return c.fingerprint();
  };
  const auto run = [&runs](std::size_t i) {
    ++runs;
    return std::vector<std::string>{"row", std::to_string(i * i)};
  };

  store::CellRunner cold_runner(cache, workloads, nullptr);
  const auto cold = cold_runner.rows("test.rows", 3, fingerprint_of, run);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(runs.load(), 3);
  ASSERT_EQ(cold.rows.size(), 3u);
  EXPECT_EQ(cold.rows[2], (std::vector<std::string>{"row", "4"}));

  store::CellRunner warm_runner(cache, workloads, nullptr);
  const auto warm = warm_runner.rows("test.rows", 3, fingerprint_of, run);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(runs.load(), 3) << "warm cells must not run";
  EXPECT_EQ(warm.rows, cold.rows);
  EXPECT_EQ(warm.report.cache_hits, 3u);
}

TEST(CellRunnerDeathTest, VerifyModeAbortsOnCacheDivergence) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  store::ResultCache::Options options;
  options.verify = true;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;

  // Poison the cache: a well-formed record under cell 0's fingerprint
  // whose payload re-simulation cannot reproduce.
  const auto fingerprint_of = [](std::size_t) {
    store::Canon c;
    c.field("cell", "test.verify");
    return c.fingerprint();
  };
  store::Record lie;
  lie.fp = fingerprint_of(0);
  lie.label = "test.verify[0]";
  lie.payload = store::encode_row({"not", "what", "run", "returns"});
  cache.store(lie);

  store::CellRunner runner(cache, workloads, nullptr);
  EXPECT_DEATH(
      {
        (void)runner.rows("test.verify", 1, fingerprint_of, [](std::size_t) {
          return std::vector<std::string>{"fresh"};
        });
      },
      "cache divergence");
}

TEST(CellRunner, VerifyModePassesWhenCacheIsHonest) {
  store::ResultCache::Options options;
  options.verify = true;
  store::ResultCache cache(options);
  store::WorkloadStore workloads;
  const auto fingerprint_of = [](std::size_t i) {
    store::Canon c;
    c.field("cell", "test.verify_ok");
    c.field("i", static_cast<std::uint64_t>(i));
    return c.fingerprint();
  };
  const auto run = [](std::size_t i) {
    return std::vector<std::string>{std::to_string(i)};
  };
  store::CellRunner runner(cache, workloads, nullptr);
  const auto cold = runner.rows("v", 2, fingerprint_of, run);
  ASSERT_TRUE(cold.ok());
  // Second pass re-simulates (verify reports misses) and audits the bytes;
  // an honest cache survives.
  const auto audit = runner.rows("v", 2, fingerprint_of, run);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.report.cache_hits, 0u);
  EXPECT_EQ(audit.rows, cold.rows);
}

}  // namespace
}  // namespace impact
