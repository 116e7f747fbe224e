// Unit + property tests: graph substrate and multiprogrammed replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/multiprog.hpp"
#include "graph/workload.hpp"
#include "obs/scope.hpp"
#include "store/cell_runner.hpp"
#include "sys/system.hpp"

namespace impact::graph {
namespace {

TEST(CsrGraphTest, UniformGeneratorShape) {
  util::Xoshiro256 rng(1);
  const auto g = CsrGraph::uniform(100, 500, rng);
  EXPECT_EQ(g.nodes(), 100u);
  EXPECT_EQ(g.edges(), 500u);
  std::size_t degree_sum = 0;
  for (NodeId u = 0; u < g.nodes(); ++u) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, 500u);
  for (std::size_t i = 0; i < g.edges(); ++i) EXPECT_LT(g.edge(i), 100u);
}

TEST(CsrGraphTest, RmatIsSkewed) {
  util::Xoshiro256 rng(2);
  const auto g = CsrGraph::rmat(12, 40000, rng);
  std::uint32_t max_degree = 0;
  for (NodeId u = 0; u < g.nodes(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  const double avg = 40000.0 / g.nodes();
  EXPECT_GT(max_degree, 10 * avg);  // Heavy-tailed degrees.
}

TEST(CsrGraphTest, GeneratorsAreDeterministic) {
  util::Xoshiro256 a(3);
  util::Xoshiro256 b(3);
  const auto g1 = CsrGraph::rmat(10, 5000, a);
  const auto g2 = CsrGraph::rmat(10, 5000, b);
  EXPECT_EQ(g1.offsets(), g2.offsets());
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
}

TEST(CsrGraphTest, ValidationRejectsBadShape) {
  EXPECT_THROW(CsrGraph(2, {0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(CsrGraph(2, {0, 1, 3}, {0}), std::invalid_argument);
}

// --- Bit-for-bit pins of the input build ---------------------------------
//
// The constants below were computed before the generators' fast paths
// (branch-free RMAT quadrant bits, per-row counting sort in from_pairs,
// the 8-byte and then the 4-byte TraceOp over a site table) went in: any
// change to the graphs or traces that Fig. 11 replays shows here, not only
// as a shifted figure.

/// FNV-1a-style hash over 64-bit words.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) { h = (h ^ v) * 1099511628211ull; }
};

std::uint64_t csr_digest(const CsrGraph& g) {
  Digest d;
  for (const std::uint32_t o : g.offsets()) d.add(o);
  for (const NodeId v : g.edge_list()) d.add(v);
  return d.h;
}

TEST(InputPins, Fig11RmatGraph) {
  util::Xoshiro256 rng(99);
  const auto g = CsrGraph::rmat(15, 262144, rng);
  EXPECT_EQ(g.edges(), 262144u);
  EXPECT_EQ(csr_digest(g), 0xe8679f0d8ec6f4daull);
}

TEST(InputPins, SmallRmatGraph) {
  util::Xoshiro256 rng(3);
  EXPECT_EQ(csr_digest(CsrGraph::rmat(10, 5000, rng)), 0x67ecf5a4d7410878ull);
}

TEST(InputPins, UniformGraph) {
  util::Xoshiro256 rng(4);
  EXPECT_EQ(csr_digest(CsrGraph::uniform(500, 4000, rng)),
            0xf72ed244ec898f19ull);
}

TEST(WorkloadTrace, BfsChecksumMatchesReferenceBfs) {
  util::Xoshiro256 rng(4);
  const auto g = CsrGraph::uniform(500, 4000, rng);
  const auto trace = build_trace(WorkloadKind::kBFS, g);
  // Independent BFS reachability count from node 0.
  std::vector<bool> seen(g.nodes(), false);
  std::deque<NodeId> q{0};
  seen[0] = true;
  std::uint64_t visited = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
      const NodeId v = g.edge(i);
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        q.push_back(v);
      }
    }
  }
  EXPECT_EQ(trace.checksum, visited);
}

TEST(WorkloadTrace, CcChecksumIsComponentUpperBound) {
  util::Xoshiro256 rng(5);
  const auto g = CsrGraph::uniform(300, 2500, rng);
  const auto trace = build_trace(WorkloadKind::kCC, g);
  // Two label-propagation rounds over-approximate the final count but can
  // never report zero components or more than nodes.
  EXPECT_GE(trace.checksum, 1u);
  EXPECT_LE(trace.checksum, g.nodes());
}

TEST(WorkloadTrace, SsspChecksumMatchesDijkstra) {
  util::Xoshiro256 rng(44);
  const auto g = CsrGraph::uniform(200, 3000, rng);
  const auto trace = build_trace(WorkloadKind::kSSSP, g);
  // Reference: Bellman-Ford to convergence bounded by the same 3 rounds
  // (the trace kernel caps rounds, so compare against the same cap).
  constexpr std::uint64_t kInf = ~0ull;
  std::vector<std::uint64_t> dist(g.nodes(), kInf);
  dist[0] = 0;
  for (int round = 0; round < 3; ++round) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      if (dist[u] == kInf) continue;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        const NodeId v = g.edge(i);
        dist[v] = std::min(dist[v], dist[u] + 1 + (v & 7));
      }
    }
  }
  std::uint64_t sum = 0;
  for (auto d : dist) {
    if (d != kInf) sum += d;
  }
  EXPECT_EQ(trace.checksum, sum);
}

TEST(WorkloadTrace, AllWorkloadsProduceWork) {
  util::Xoshiro256 rng(6);
  const auto g = CsrGraph::rmat(10, 8000, rng);
  for (const auto kind : kExtendedWorkloads) {
    const auto trace = build_trace(kind, g);
    EXPECT_GT(trace.ops.size(), g.nodes()) << to_string(kind);
    ASSERT_FALSE(trace.sites.empty()) << to_string(kind);
    ASSERT_LE(trace.sites.size(), kTraceSiteLimit) << to_string(kind);
    // Every op names a declared site, and indices stay within the declared
    // array sizes.
    for (const TraceOp op : trace.ops) {
      ASSERT_LT(op.site, trace.sites.size()) << to_string(kind);
      const TraceSite& site = trace.sites[op.site];
      switch (site.array) {
        case ArrayRef::kOffsets:
          EXPECT_LE(op.index, g.nodes());
          break;
        case ArrayRef::kEdges:
          EXPECT_LT(op.index, g.edges());
          break;
        default: {
          const auto p =
              static_cast<std::size_t>(site.array) -
              static_cast<std::size_t>(ArrayRef::kPrivate0);
          ASSERT_LT(p, 3u);
          ASSERT_GT(trace.private_elems[p], 0u) << to_string(kind);
          EXPECT_LT(op.index, trace.private_elems[p]);
        }
      }
    }
  }
}

TEST(WorkloadTrace, TracesAreDeterministic) {
  util::Xoshiro256 rng(7);
  const auto g = CsrGraph::rmat(9, 4000, rng);
  const auto a = build_trace(WorkloadKind::kPR, g);
  const auto b = build_trace(WorkloadKind::kPR, g);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.ops.size(), b.ops.size());
}

TEST(TraceOpTest, PackedFieldsRoundTrip) {
  // The 64th site carries every site field at its bound, and its op the
  // largest index.
  WorkloadTrace trace;
  Emitter e(trace);
  for (std::uint32_t s = 0; s + 1 < kTraceSiteLimit; ++s) {
    (void)e.read(ArrayRef::kOffsets, 1, 10);
  }
  const Emitter::Site last =
      e.write(ArrayRef::kPrivate2, 0xffff, kTracePcLimit - 1);
  e.emit(last, kTraceIndexLimit - 1);
  ASSERT_EQ(trace.sites.size(), 64u);
  ASSERT_EQ(trace.ops.size(), 1u);
  const TraceOp op = trace.ops[0];
  EXPECT_EQ(op.site, 63u);
  EXPECT_EQ(op.index, (1u << 26) - 1);
  const TraceSite& site = trace.sites[op.site];
  EXPECT_EQ(site.pc, 4095u);
  EXPECT_EQ(site.compute, 0xffffu);
  EXPECT_EQ(site.array, ArrayRef::kPrivate2);
  EXPECT_TRUE(site.write);
}

TEST(TraceOpTest, EmitterRejectsWhatDoesNotFit) {
  WorkloadTrace trace;
  Emitter e(trace);
  EXPECT_THROW((void)e.read(ArrayRef::kOffsets, 1, kTracePcLimit),
               std::invalid_argument);
  const Emitter::Site site = e.read(ArrayRef::kEdges, 1, 10);
  EXPECT_THROW(e.emit(site, kTraceIndexLimit), std::invalid_argument);
  EXPECT_THROW(e.emit(site + 1, 0), std::invalid_argument);  // Undeclared.
  while (trace.sites.size() < kTraceSiteLimit) {
    (void)e.read(ArrayRef::kEdges, 1, 10);
  }
  EXPECT_THROW((void)e.write(ArrayRef::kEdges, 1, 10), std::invalid_argument);
  EXPECT_EQ(trace.sites.size(), 64u);
  EXPECT_TRUE(trace.ops.empty());
}

/// One kernel's trace over the Fig. 11 input, pinned field by field.
struct TracePin {
  WorkloadKind kind;
  std::size_t ops;
  std::uint64_t checksum;
  std::uint32_t private_elems[3];
  std::uint64_t op_digest;  ///< Over every op's five fields, in order.

  friend void PrintTo(const TracePin& pin, std::ostream* os) {
    *os << to_string(pin.kind);
  }
};

class TracePins : public ::testing::TestWithParam<TracePin> {};

TEST_P(TracePins, Fig11TraceIsPinned) {
  const TracePin& want = GetParam();
  util::Xoshiro256 rng(99);
  const auto g = CsrGraph::rmat(15, 262144, rng);
  const WorkloadTrace t = build_trace(want.kind, g);
  Digest d;
  for (const TraceOp op : t.ops) {
    const TraceSite& site = t.sites[op.site];
    d.add(op.index);
    d.add(site.compute);
    d.add(site.pc);
    d.add(static_cast<std::uint64_t>(site.array));
    d.add(site.write ? 1 : 0);
  }
  EXPECT_EQ(t.kind, want.kind);
  EXPECT_EQ(t.ops.size(), want.ops);
  EXPECT_EQ(t.checksum, want.checksum);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(t.private_elems[p], want.private_elems[p]) << p;
  }
  EXPECT_EQ(d.h, want.op_digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TracePins,
    ::testing::Values(
        TracePin{WorkloadKind::kBC, 2063620, 37592000, {32768, 32768, 32768},
                 0xd2b658e0597832b5ull},
        TracePin{WorkloadKind::kBFS, 566303, 17416, {32768, 0, 0},
                 0x479f9f1200aa7f59ull},
        TracePin{WorkloadKind::kCC, 1197185, 15302, {32768, 0, 0},
                 0xa2a3fe39f9ea85afull},
        TracePin{WorkloadKind::kTC, 6871491, 115507, {0, 0, 0},
                 0xbb0ca4117411b87aull},
        TracePin{WorkloadKind::kPR, 1179648, 714850, {32768, 32768, 0},
                 0x749694269565d9c5ull},
        TracePin{WorkloadKind::kSSSP, 1756620, 96057, {32768, 0, 0},
                 0xa4f6aa69ce1e58caull}),
    [](const auto& info) { return std::string(to_string(info.param.kind)); });

class DefensePolicyOverhead
    : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(DefensePolicyOverhead, DefensesNeverSpeedUpAndCtdCostsMost) {
  MultiprogConfig config;
  config.rmat_scale = 11;  // Small but memory-visible at scaled caches.
  config.edge_count = 1u << 14;
  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  const WorkloadKind kinds[] = {GetParam()};
  store::ResultCache cache;
  store::WorkloadStore workloads;
  store::CellRunner runner(cache, workloads, nullptr);
  const auto grid = runner.defense_matrix(config, kinds, kPolicies);
  ASSERT_TRUE(grid.ok()) << grid.report.summary();
  const RunStats& open_row = grid.cells[0][0].stats;
  const RunStats& closed_row = grid.cells[0][1].stats;
  const RunStats& constant_time = grid.cells[0][2].stats;
  EXPECT_GT(open_row.cycles, 0u);
  EXPECT_GE(closed_row.cycles, open_row.cycles);
  // Both overheads share the open-row baseline, so this is also
  // CTD overhead >= CRP overhead.
  EXPECT_GE(constant_time.cycles, closed_row.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DefensePolicyOverhead,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Multiprog, RunProducesStats) {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  const auto stats = run_multiprogrammed(config, WorkloadKind::kBFS,
                                         dram::RowPolicy::kOpenRow);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_GT(stats.llc_misses, 0u);
  EXPECT_GT(stats.mpki(), 0.0);
  EXPECT_GT(stats.row_hit_rate, 0.0);
  EXPECT_LE(stats.row_hit_rate, 1.0);
  EXPECT_EQ(stats.accesses % 2, 0u);  // Two instances.
}

TEST(Multiprog, ConstantTimeHidesRowState) {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  const auto stats = run_multiprogrammed(config, WorkloadKind::kCC,
                                         dram::RowPolicy::kConstantTime);
  // Every DRAM access is padded: observable outcomes carry no hit signal.
  EXPECT_GT(stats.cycles, 0u);
}

// --- Front end / back end split ------------------------------------------
//
// run_multiprogrammed records each instance's TLB and cache work once per
// input and replays only the DRAM requests per row policy. The reference
// below is the replay it replaced: every access of both instances through
// a sys::MemorySystem's AccessPort, interleaved by simulated time. The
// split must reproduce it exactly — RunStats and every obs counter.

constexpr dram::ActorId kRefInstanceA = 10;
constexpr dram::ActorId kRefInstanceB = 11;

struct RefArrays {
  sys::VAddr base[kArrayRefCount] = {};
};

RefArrays ref_map_arrays(sys::MemorySystem& system, const CsrGraph& graph,
                         const WorkloadTrace& trace, dram::ActorId actor,
                         const RefArrays* shared_from) {
  auto& vmem = system.vmem();
  RefArrays m;
  const auto pages = [&](std::uint64_t bytes) {
    return (bytes + vmem.page_bytes() - 1) / vmem.page_bytes();
  };
  const std::uint64_t offset_pages =
      pages((graph.nodes() + 1) * sizeof(std::uint32_t));
  const std::uint64_t edge_pages = pages(graph.edges() * sizeof(NodeId));
  if (shared_from == nullptr) {
    m.base[0] = vmem.map_pages(actor, offset_pages).vaddr;
    m.base[1] = vmem.map_pages(actor, edge_pages).vaddr;
  } else {
    m.base[0] = shared_from->base[0];
    m.base[1] = shared_from->base[1];
    vmem.share(kRefInstanceA, actor,
               {m.base[0], offset_pages * vmem.page_bytes()});
    vmem.share(kRefInstanceA, actor,
               {m.base[1], edge_pages * vmem.page_bytes()});
  }
  for (int p = 0; p < 3; ++p) {
    if (trace.private_elems[p] == 0) continue;
    m.base[2 + p] =
        vmem.map_pages(actor, pages(trace.private_elems[p] * 4ull)).vaddr;
  }
  return m;
}

RunStats reference_run(const MultiprogConfig& config,
                       const WorkloadInput& input, dram::RowPolicy policy) {
  sys::SystemConfig sys_config = config.system;
  sys_config.cores = 2;
  sys_config.dram.policy = policy;
  sys::MemorySystem system(sys_config);
  const WorkloadTrace& trace = input.trace;
  const RefArrays map_a =
      ref_map_arrays(system, *input.graph, trace, kRefInstanceA, nullptr);
  const RefArrays map_b =
      ref_map_arrays(system, *input.graph, trace, kRefInstanceB, &map_a);
  sys::MemorySystem::AccessPort port_a = system.port(kRefInstanceA);
  sys::MemorySystem::AccessPort port_b = system.port(kRefInstanceB);

  RunStats stats;
  const auto replay = [&](sys::MemorySystem::AccessPort& port,
                          const RefArrays& map, const TraceOp op,
                          util::Cycle& clock) {
    const TraceSite& site = trace.sites.at(op.site);
    clock += site.compute;
    stats.instructions += 1 + site.compute;
    const sys::VAddr addr =
        map.base[static_cast<std::size_t>(site.array)] + op.index * 4ull;
    if (site.write) {
      (void)port.store(addr, clock, site.pc);
    } else {
      (void)port.load(addr, clock, site.pc);
    }
  };
  util::Cycle clock_a = 0;
  util::Cycle clock_b = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  const std::size_t n = trace.ops.size();
  // Per-op interleave: the instance that is behind goes next (A on ties).
  while (ia < n || ib < n) {
    if (ib >= n || (ia < n && clock_a <= clock_b)) {
      replay(port_a, map_a, trace.ops[ia++], clock_a);
    } else {
      replay(port_b, map_b, trace.ops[ib++], clock_b);
    }
  }
  stats.cycles = std::max(clock_a, clock_b);
  stats.accesses = 2 * n;
  stats.llc_misses = system.hierarchy(kRefInstanceA).l3().stats().misses +
                     system.hierarchy(kRefInstanceB).l3().stats().misses;
  stats.row_hit_rate = system.controller().total_stats().hit_rate();
  if (obs::Registry* reg = obs::current_registry()) {
    reg->counter("graph.instructions").add(stats.instructions);
    reg->counter("graph.accesses").add(stats.accesses);
    reg->counter("graph.llc_misses").add(stats.llc_misses);
    reg->counter("graph.cycles").add(stats.cycles);
    reg->gauge("graph.row_hit_rate").set(stats.row_hit_rate);
    reg->gauge("graph.mpki").set(stats.mpki());
  }
  return stats;
}

/// One cell as a sweep sees it: the result, its own obs snapshot, and the
/// DRAM command stream (kind, bank, start and completion of every command,
/// in order) as a Chrome trace.
struct CapturedCell {
  RunStats stats;
  obs::Snapshot snapshot;
  std::string dram_trace;
};

template <class Run>
CapturedCell capture(Run run) {
  obs::TraceSession trace(1u << 20);
  obs::Scope scope(&trace);
  CapturedCell cell;
  cell.stats = run();
  cell.snapshot = scope.snapshot();
  EXPECT_EQ(trace.dropped(), 0u);
  std::ostringstream json;
  trace.write_chrome_json(json);
  cell.dram_trace = json.str();
  return cell;
}

void expect_same_cell(const CapturedCell& got, const CapturedCell& want,
                      const std::string& what) {
  EXPECT_EQ(got.stats, want.stats) << what;
  EXPECT_EQ(got.snapshot.counters, want.snapshot.counters) << what;
  EXPECT_EQ(got.snapshot.gauges, want.snapshot.gauges) << what;
  EXPECT_TRUE(got.dram_trace == want.dram_trace) << what;
}

constexpr dram::RowPolicy kAllPolicies[] = {
    dram::RowPolicy::kOpenRow, dram::RowPolicy::kClosedRow,
    dram::RowPolicy::kConstantTime, dram::RowPolicy::kAdaptive};

MultiprogConfig split_config(
    dram::MappingScheme mapping = dram::MappingScheme::kBankInterleaved) {
  MultiprogConfig config;
  config.rmat_scale = 10;
  config.edge_count = 1u << 13;
  config.system.mapping = mapping;
  return config;
}

/// Every Fig. 11 kernel under every address mapping: the front end decodes
/// each request's bank and row itself. TC has the longest runs of hits
/// between DRAM events, BC the most follow-on requests per event.
class FrontEndSplit
    : public ::testing::TestWithParam<
          std::tuple<WorkloadKind, dram::MappingScheme>> {
 protected:
  static WorkloadKind kind() { return std::get<0>(GetParam()); }
  static MultiprogConfig config() {
    return split_config(std::get<1>(GetParam()));
  }
};

TEST_P(FrontEndSplit, MatchesPerAccessReplayUnderEveryPolicy) {
  const MultiprogConfig config = this->config();
  const WorkloadInput input = build_input(config, kind());
  for (const dram::RowPolicy policy : kAllPolicies) {
    const CapturedCell want =
        capture([&] { return reference_run(config, input, policy); });
    const CapturedCell got =
        capture([&] { return run_multiprogrammed(config, input, policy); });
    expect_same_cell(got, want, to_string(policy));
    EXPECT_GT(got.snapshot.counter("cache.l1.hits"), 0u);
    EXPECT_GT(got.snapshot.counter("tlb.accesses"), 0u);
    EXPECT_GT(got.snapshot.counter("dram.commands"), 0u);
  }
}

TEST_P(FrontEndSplit, WarmMemoRepeatsTheColdRun) {
  const MultiprogConfig config = this->config();
  const WorkloadInput built = build_input(config, kind());
  for (const dram::RowPolicy policy : kAllPolicies) {
    const WorkloadInput input = built;  // A copy starts with a cold memo.
    const CapturedCell cold =
        capture([&] { return run_multiprogrammed(config, input, policy); });
    const CapturedCell warm =
        capture([&] { return run_multiprogrammed(config, input, policy); });
    expect_same_cell(warm, cold, to_string(policy));
  }
}

TEST_P(FrontEndSplit, CacheConfigChangeRecordsAFreshFrontEnd) {
  const MultiprogConfig config = this->config();
  MultiprogConfig rescaled = config;
  rescaled.system.cache_scale = 4 * config.system.cache_scale;
  const WorkloadInput input = build_input(config, kind());
  const RunStats first =
      run_multiprogrammed(config, input, dram::RowPolicy::kOpenRow);
  const CapturedCell want = capture([&] {
    return reference_run(rescaled, input, dram::RowPolicy::kClosedRow);
  });
  const CapturedCell got = capture([&] {
    return run_multiprogrammed(rescaled, input, dram::RowPolicy::kClosedRow);
  });
  expect_same_cell(got, want, "rescaled");
  // The smaller caches must actually show: a stale front end would not.
  EXPECT_GT(got.stats.llc_misses, first.llc_misses);
  // Switching back records the original front end again.
  EXPECT_EQ(run_multiprogrammed(config, input, dram::RowPolicy::kOpenRow),
            first);
}

INSTANTIATE_TEST_SUITE_P(
    SmallInputs, FrontEndSplit,
    ::testing::Combine(::testing::ValuesIn(kAllWorkloads),
                       ::testing::Values(dram::MappingScheme::kBankInterleaved,
                                         dram::MappingScheme::kRowBankCol,
                                         dram::MappingScheme::kXorBankHash)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- The front-end memo's key --------------------------------------------
//
// FrontEndMemo compares the whole SystemConfig, less the groups that
// multiprog.cpp's front_end_view resets, by its defaulted comparison, so a
// new field is in the key until the view resets it. Every field is either
// in the key, and changing it must record afresh, or reset, and then a
// cold recording under the changed config must count the same cache and
// TLB events and LLC misses.

struct FieldChange {
  const char* field;
  void (*apply)(sys::SystemConfig&);
};

constexpr FieldChange kKeyFields[] = {
    {"llc_bytes", [](sys::SystemConfig& s) { s.llc_bytes *= 2; }},
    {"llc_ways", [](sys::SystemConfig& s) { s.llc_ways /= 2; }},
    {"cache_scale", [](sys::SystemConfig& s) { s.cache_scale *= 2; }},
    {"prefetchers",
     [](sys::SystemConfig& s) { s.prefetchers = !s.prefetchers; }},
    {"tlb.l1", [](sys::SystemConfig& s) { s.tlb.l1.entries /= 2; }},
    {"tlb.walk_latency",
     [](sys::SystemConfig& s) { s.tlb.walk_latency += 1; }},
    {"seed", [](sys::SystemConfig& s) { s.seed += 1; }},
    {"mapping",
     [](sys::SystemConfig& s) {
       s.mapping = dram::MappingScheme::kXorBankHash;
     }},
    {"dram.channels", [](sys::SystemConfig& s) { s.dram.channels *= 2; }},
    {"dram.ranks", [](sys::SystemConfig& s) { s.dram.ranks /= 2; }},
    {"dram.banks_per_rank",
     [](sys::SystemConfig& s) { s.dram.banks_per_rank /= 2; }},
    {"dram.rows_per_bank",
     [](sys::SystemConfig& s) { s.dram.rows_per_bank /= 2; }},
    {"dram.row_bytes", [](sys::SystemConfig& s) { s.dram.row_bytes /= 2; }},
    {"dram.subarray_rows",
     [](sys::SystemConfig& s) { s.dram.subarray_rows /= 2; }},
};

constexpr FieldChange kNonKeyFields[] = {
    {"freq_ghz", [](sys::SystemConfig& s) { s.freq_ghz = 3.2; }},
    {"cores", [](sys::SystemConfig& s) { s.cores = 8; }},
    {"dram.policy",
     [](sys::SystemConfig& s) {
       s.dram.policy = dram::RowPolicy::kConstantTime;
     }},
    {"dram.timing",
     [](sys::SystemConfig& s) {
       s.dram.timing.trcd_ns *= 2;
       s.dram.timing.tcas_ns *= 2;
     }},
    {"dram.freq",
     [](sys::SystemConfig& s) { s.dram.freq = util::Frequency{3.2}; }},
    {"timer", [](sys::SystemConfig& s) { s.timer.rdtscp_cost += 10; }},
    {"dma",
     [](sys::SystemConfig& s) { s.dma.per_transfer_overhead += 10; }},
};

TEST(FrontEndMemoKey, KeyFieldsRebuildAndOthersHit) {
  const MultiprogConfig config = split_config();
  const WorkloadInput input = build_input(config, WorkloadKind::kBFS);
  (void)run_multiprogrammed(config, input, dram::RowPolicy::kOpenRow);
  // run_multiprogrammed looks its memo up with two cores.
  sys::SystemConfig base = config.system;
  base.cores = 2;
  int builds = 0;
  const auto count_build = [&](std::shared_ptr<const FrontEnd> entry) {
    return [&builds, entry] {
      ++builds;
      return entry;
    };
  };
  const std::shared_ptr<const FrontEnd> entry =
      input.front_end.get(base, count_build(nullptr));
  ASSERT_EQ(builds, 0) << "the run must have filled the memo";
  ASSERT_NE(entry, nullptr);
  // The build hands back the entry recorded under `base`, so every
  // lookup below is compared against the same key.
  for (const FieldChange& change : kKeyFields) {
    sys::SystemConfig system = base;
    change.apply(system);
    builds = 0;
    EXPECT_EQ(input.front_end.get(system, count_build(entry)), entry);
    EXPECT_EQ(builds, 1) << change.field << " must be in the key";
  }
  for (const FieldChange& change : kNonKeyFields) {
    sys::SystemConfig system = base;
    change.apply(system);
    builds = 0;
    EXPECT_EQ(input.front_end.get(system, count_build(entry)), entry);
    EXPECT_EQ(builds, 0) << change.field << " must not be in the key";
  }
}

/// The front end's share of a cold run: LLC misses and the cache and TLB
/// counters.
struct FrontEndCounts {
  std::uint64_t llc_misses = 0;
  std::map<std::string, std::uint64_t> counters;
  friend bool operator==(const FrontEndCounts&,
                         const FrontEndCounts&) = default;
};

FrontEndCounts cold_front_end(const MultiprogConfig& config,
                              const WorkloadInput& built) {
  const WorkloadInput input = built;  // A copy starts with a cold memo.
  const CapturedCell cell = capture([&] {
    return run_multiprogrammed(config, input, config.system.dram.policy);
  });
  FrontEndCounts counts;
  counts.llc_misses = cell.stats.llc_misses;
  for (const auto& [name, value] : cell.snapshot.counters) {
    if (name.starts_with("cache.") || name.starts_with("tlb.")) {
      counts.counters[name] = value;
    }
  }
  return counts;
}

TEST(FrontEndMemoKey, FieldsOutsideTheKeyLeaveTheFrontEndUnchanged) {
  const MultiprogConfig config = split_config();
  const WorkloadInput built = build_input(config, WorkloadKind::kBC);
  const FrontEndCounts want = cold_front_end(config, built);
  EXPECT_GT(want.llc_misses, 0u);
  EXPECT_GT(want.counters.count("cache.l1.hits"), 0u);
  EXPECT_GT(want.counters.count("tlb.accesses"), 0u);
  for (const FieldChange& change : kNonKeyFields) {
    MultiprogConfig changed = config;
    change.apply(changed.system);
    EXPECT_TRUE(cold_front_end(changed, built) == want) << change.field;
  }
}

// --- One RMAT graph per live key ------------------------------------------
//
// shared_graph keys on graph_inputs(config): the whole MultiprogConfig,
// compared by its defaulted comparison, with `system` reset. No change to
// `system` reaches the generator; a new field is in the key.

struct ConfigChange {
  const char* field;
  void (*apply)(MultiprogConfig&);
};

const ConfigChange kGraphKeyFields[] = {
    {"graph_seed", [](MultiprogConfig& c) { ++c.graph_seed; }},
    {"rmat_scale", [](MultiprogConfig& c) { ++c.rmat_scale; }},
    {"edge_count", [](MultiprogConfig& c) { c.edge_count += 64; }},
};

const ConfigChange kGraphNonKeyFields[] = {
    {"system.seed", [](MultiprogConfig& c) { ++c.system.seed; }},
    {"system.cache_scale",
     [](MultiprogConfig& c) { c.system.cache_scale = 1; }},
    {"system.dram.policy",
     [](MultiprogConfig& c) {
       c.system.dram.policy = dram::RowPolicy::kClosedRow;
     }},
    {"system.dram.banks_per_rank",
     [](MultiprogConfig& c) { c.system.dram.banks_per_rank *= 2; }},
};

TEST(GraphKey, EveryKeyFieldGivesItsOwnGraph) {
  const MultiprogConfig config = split_config();
  const std::shared_ptr<const CsrGraph> base = shared_graph(config);
  std::vector<std::shared_ptr<const CsrGraph>> held = {base};
  for (const ConfigChange& change : kGraphKeyFields) {
    MultiprogConfig changed = config;
    change.apply(changed);
    const std::shared_ptr<const CsrGraph> graph = shared_graph(changed);
    for (const auto& other : held) {
      EXPECT_NE(graph, other) << change.field << " must be in the key";
    }
    held.push_back(graph);
  }
}

TEST(GraphKey, SystemFieldsShareTheGraph) {
  const MultiprogConfig config = split_config();
  const std::shared_ptr<const CsrGraph> base = shared_graph(config);
  for (const ConfigChange& change : kGraphNonKeyFields) {
    MultiprogConfig changed = config;
    change.apply(changed);
    EXPECT_EQ(shared_graph(changed), base)
        << change.field << " must not be in the key";
  }
}

TEST(SharedGraph, LiveInputsOfDifferentKindsShareOneGraph) {
  const MultiprogConfig config = split_config();
  const std::size_t before = graph_builds();
  std::weak_ptr<const CsrGraph> released;
  {
    const WorkloadInput bfs = build_input(config, WorkloadKind::kBFS);
    const WorkloadInput pr = build_input(config, WorkloadKind::kPR);
    EXPECT_EQ(bfs.graph, pr.graph);
    EXPECT_EQ(graph_builds(), before + 1);
    // The shared graph is the one a fresh generator run makes.
    util::Xoshiro256 rng(config.graph_seed);
    const CsrGraph fresh =
        CsrGraph::rmat(config.rmat_scale, config.edge_count, rng);
    EXPECT_EQ(csr_digest(*bfs.graph), csr_digest(fresh));
    released = bfs.graph;
  }
  // The last holder is gone: the graph is freed and the next input
  // builds it again.
  EXPECT_TRUE(released.expired());
  const WorkloadInput again = build_input(config, WorkloadKind::kTC);
  EXPECT_EQ(graph_builds(), before + 2);
}

// --- Hand-built inputs for the back end's merge edge cases ---------------

/// A small shared graph plus a hand-written trace, emitted by `emit`
/// through the same Emitter and site table the kernels use. Private array
/// 0 spans 64 pages, so its elements 1024 apart sit on different pages.
WorkloadInput hand_built(const std::function<void(Emitter&)>& emit) {
  util::Xoshiro256 rng(3);
  WorkloadInput input;
  input.graph =
      std::make_shared<const CsrGraph>(CsrGraph::uniform(1024, 8192, rng));
  Emitter e(input.trace);
  emit(e);
  input.trace.private_elems[0] = 1u << 16;
  return input;
}

/// Runs `input` under every policy, split and per-access, and compares.
void expect_matches_reference(const WorkloadInput& input) {
  const MultiprogConfig config = split_config();
  for (const dram::RowPolicy policy : kAllPolicies) {
    const CapturedCell want =
        capture([&] { return reference_run(config, input, policy); });
    const CapturedCell got =
        capture([&] { return run_multiprogrammed(config, input, policy); });
    expect_same_cell(got, want, to_string(policy));
  }
}

TEST(FrontEndSplitEdges, TiedClocksRunInstanceAFirst) {
  // Both instances replay the same ops from clock 0, so every DRAM event
  // below starts on equal keys until contention separates the clocks: the
  // shared edge array puts both on one row, the private pages on others.
  expect_matches_reference(hand_built([](Emitter& e) {
    const Emitter::Site edge = e.read(ArrayRef::kEdges, 10, 1);
    const Emitter::Site own = e.read(ArrayRef::kPrivate0, 10, 2);
    for (std::uint32_t i = 0; i < 8; ++i) {
      e.emit(edge, 1024 * i);
      e.emit(own, 1024 * i);
    }
  }));
}

TEST(FrontEndSplitEdges, HitsAfterTheLastDramRequestStillCount) {
  // A few misses, then a long run of L1 hits on one element: the cycles
  // after the last DRAM event are the trailing gap.
  constexpr std::size_t kHits = 5000;
  const WorkloadInput input = hand_built([](Emitter& e) {
    const Emitter::Site miss = e.read(ArrayRef::kPrivate0, 10, 1);
    const Emitter::Site hit = e.read(ArrayRef::kOffsets, 100, 2);
    for (std::uint32_t i = 0; i < 4; ++i) e.emit(miss, 1024 * i);
    for (std::size_t i = 0; i < kHits; ++i) e.emit(hit, 0);
  });
  expect_matches_reference(input);
  EXPECT_GT(run_multiprogrammed(split_config(), input,
                                dram::RowPolicy::kOpenRow)
                .cycles,
            kHits * 100);
}

TEST(FrontEndSplitEdges, HitRunLongerThan32BitsOfCycles) {
  // ~66 K hits of 65535 compute cycles each between two misses: the gap
  // before the second miss exceeds 2^32 cycles and is split by a filler.
  const WorkloadInput input = hand_built([](Emitter& e) {
    e.emit(e.read(ArrayRef::kPrivate0, 10, 1), 0);
    const Emitter::Site hit = e.read(ArrayRef::kPrivate0, 65535, 2);
    for (int i = 1; i < 66000; ++i) e.emit(hit, 0);
    e.emit(e.read(ArrayRef::kPrivate0, 10, 3), 1024);
    e.emit(e.read(ArrayRef::kEdges, 10, 4), 0);
  });
  expect_matches_reference(input);
  EXPECT_GT(run_multiprogrammed(split_config(), input,
                                dram::RowPolicy::kOpenRow)
                .cycles,
            util::Cycle{1} << 32);
}

TEST(FrontEndSplitEdges, RejectsASiteTableBeyondItsLimit) {
  // The front end resolves at most kTraceSiteLimit sites per trace; a
  // table grown past that by hand, not through an Emitter, is refused.
  WorkloadInput input = hand_built(
      [](Emitter& e) { e.emit(e.read(ArrayRef::kPrivate0, 10, 1), 0); });
  input.trace.sites.resize(kTraceSiteLimit + 1);
  EXPECT_THROW((void)run_multiprogrammed(split_config(), input,
                                         dram::RowPolicy::kOpenRow),
               std::invalid_argument);
}

// --- Recording the two instances concurrently ----------------------------
//
// The front end records instance A and instance B on up to
// min(2, IMPACT_THREADS) threads; with one thread both run inline on the
// caller. Nothing either recording writes is read by the other, so the two
// schedules must agree exactly.

/// Sets IMPACT_THREADS for the guard's lifetime, then restores it.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* old = std::getenv("IMPACT_THREADS")) saved_ = old;
    ::setenv("IMPACT_THREADS", value, 1);
  }
  ~ThreadsEnv() {
    if (saved_) {
      ::setenv("IMPACT_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("IMPACT_THREADS");
    }
  }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(ConcurrentFrontEnd, InlineAndThreadedRecordingsAgree) {
  // BC sends the most follow-on requests per event, TC has the longest
  // runs of hits. Two threads are pinned, so a 1-CPU machine still runs
  // the threaded path.
  const MultiprogConfig config = split_config();
  for (const WorkloadKind kind : {WorkloadKind::kBC, WorkloadKind::kTC}) {
    const WorkloadInput built = build_input(config, kind);
    const auto run_with = [&](const char* threads) {
      const ThreadsEnv env(threads);
      const WorkloadInput input = built;  // A copy starts with a cold memo.
      return capture([&] {
        return run_multiprogrammed(config, input, dram::RowPolicy::kOpenRow);
      });
    };
    const CapturedCell inline_cell = run_with("1");
    const CapturedCell threaded = run_with("2");
    expect_same_cell(threaded, inline_cell, to_string(kind));
    EXPECT_GT(threaded.snapshot.counter("cache.l1.hits"), 0u);
    EXPECT_GT(threaded.snapshot.counter("tlb.accesses"), 0u);
  }
}

TEST(ConcurrentFrontEnd, RecordingErrorReachesTheCaller) {
  // The second op's index lies far past private array 0's 64 pages, so
  // the translation inside the recording throws.
  const auto emit = [](Emitter& e) {
    e.emit(e.read(ArrayRef::kPrivate0, 10, 1), 0);
    e.emit(e.read(ArrayRef::kPrivate0, 10, 2), 1u << 24);
  };
  for (const char* threads : {"1", "2"}) {
    const ThreadsEnv env(threads);
    const WorkloadInput input = hand_built(emit);
    EXPECT_THROW((void)run_multiprogrammed(split_config(), input,
                                           dram::RowPolicy::kOpenRow),
                 std::invalid_argument)
        << "IMPACT_THREADS=" << threads;
    // A failed recording leaves the memo empty.
    EXPECT_EQ(input.front_end.dram_requests(), 0u)
        << "IMPACT_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace impact::graph
