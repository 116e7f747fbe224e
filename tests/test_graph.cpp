// Unit + property tests: graph substrate and multiprogrammed replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
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
    // Indices stay within the declared array sizes.
    for (const auto& op : trace.ops) {
      switch (op.array) {
        case ArrayRef::kOffsets:
          EXPECT_LE(op.index, g.nodes());
          break;
        case ArrayRef::kEdges:
          EXPECT_LT(op.index, g.edges());
          break;
        default: {
          const auto p =
              static_cast<std::size_t>(op.array) -
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

class DefensePolicyOverhead
    : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(DefensePolicyOverhead, DefensesNeverSpeedUpAndCtdCostsMost) {
  MultiprogConfig config;
  config.rmat_scale = 11;  // Small but memory-visible at scaled caches.
  config.edge_count = 1u << 14;
  const auto r = evaluate_defenses(config, GetParam());
  EXPECT_GT(r.open_row.cycles, 0u);
  EXPECT_GE(r.closed_row.cycles, r.open_row.cycles);
  EXPECT_GE(r.constant_time.cycles, r.closed_row.cycles);
  EXPECT_GE(r.ctd_overhead(), r.crp_overhead());
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
      ref_map_arrays(system, input.graph, trace, kRefInstanceA, nullptr);
  const RefArrays map_b =
      ref_map_arrays(system, input.graph, trace, kRefInstanceB, &map_a);
  sys::MemorySystem::AccessPort port_a = system.port(kRefInstanceA);
  sys::MemorySystem::AccessPort port_b = system.port(kRefInstanceB);

  RunStats stats;
  const auto replay = [&](sys::MemorySystem::AccessPort& port,
                          const RefArrays& map, const TraceOp& op,
                          util::Cycle& clock) {
    clock += op.compute;
    stats.instructions += 1 + op.compute;
    const sys::VAddr addr =
        map.base[static_cast<std::size_t>(op.array)] + op.index * 4ull;
    if (op.write) {
      (void)port.store(addr, clock, op.pc);
    } else {
      (void)port.load(addr, clock, op.pc);
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
    if (obs::kCompiled) {
      EXPECT_GT(got.snapshot.counter("cache.l1.hits"), 0u);
      EXPECT_GT(got.snapshot.counter("tlb.accesses"), 0u);
      EXPECT_GT(got.snapshot.counter("dram.commands"), 0u);
    }
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

// --- Hand-built inputs for the back end's merge edge cases ---------------

/// A small shared graph plus a hand-written trace. Private array 0 spans
/// 64 pages, so its elements 1024 apart sit on different pages.
WorkloadInput hand_built(std::vector<TraceOp> ops) {
  util::Xoshiro256 rng(3);
  WorkloadInput input;
  input.graph = CsrGraph::uniform(1024, 8192, rng);
  input.trace.ops = std::move(ops);
  input.trace.private_elems[0] = 1u << 16;
  return input;
}

TraceOp load(ArrayRef array, std::uint32_t index, std::uint16_t compute,
             std::uint16_t pc = 1) {
  return {.index = index, .compute = compute, .pc = pc, .array = array};
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
  std::vector<TraceOp> ops;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ops.push_back(load(ArrayRef::kEdges, 1024 * i, 10));
    ops.push_back(load(ArrayRef::kPrivate0, 1024 * i, 10, 2));
  }
  expect_matches_reference(hand_built(std::move(ops)));
}

TEST(FrontEndSplitEdges, HitsAfterTheLastDramRequestStillCount) {
  // A few misses, then a long run of L1 hits on one element: the cycles
  // after the last DRAM event are the trailing gap.
  std::vector<TraceOp> ops;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ops.push_back(load(ArrayRef::kPrivate0, 1024 * i, 10));
  }
  constexpr std::size_t kHits = 5000;
  ops.resize(ops.size() + kHits, load(ArrayRef::kOffsets, 0, 100, 2));
  const WorkloadInput input = hand_built(std::move(ops));
  expect_matches_reference(input);
  EXPECT_GT(run_multiprogrammed(split_config(), input,
                                dram::RowPolicy::kOpenRow)
                .cycles,
            kHits * 100);
}

TEST(FrontEndSplitEdges, HitRunLongerThan32BitsOfCycles) {
  // ~66 K hits of 65535 compute cycles each between two misses: the gap
  // before the second miss exceeds 2^32 cycles and is split by a filler.
  std::vector<TraceOp> ops = {load(ArrayRef::kPrivate0, 0, 10)};
  ops.resize(66000, load(ArrayRef::kPrivate0, 0, 65535, 2));
  ops.push_back(load(ArrayRef::kPrivate0, 1024, 10, 3));
  ops.push_back(load(ArrayRef::kEdges, 0, 10, 4));
  const WorkloadInput input = hand_built(std::move(ops));
  expect_matches_reference(input);
  EXPECT_GT(run_multiprogrammed(split_config(), input,
                                dram::RowPolicy::kOpenRow)
                .cycles,
            util::Cycle{1} << 32);
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
    if (obs::kCompiled) {
      EXPECT_GT(threaded.snapshot.counter("cache.l1.hits"), 0u);
      EXPECT_GT(threaded.snapshot.counter("tlb.accesses"), 0u);
    }
  }
}

TEST(ConcurrentFrontEnd, RecordingErrorReachesTheCaller) {
  // The second op's index lies far past private array 0's 64 pages, so
  // the translation inside the recording throws.
  const std::vector<TraceOp> ops = {load(ArrayRef::kPrivate0, 0, 10),
                                    load(ArrayRef::kPrivate0, 1u << 24, 10, 2)};
  for (const char* threads : {"1", "2"}) {
    const ThreadsEnv env(threads);
    const WorkloadInput input = hand_built(ops);
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
