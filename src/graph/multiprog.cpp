#include "graph/multiprog.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::graph {

namespace {

constexpr dram::ActorId kInstanceA = 10;
constexpr dram::ActorId kInstanceB = 11;
constexpr dram::ActorId kInstances[2] = {kInstanceA, kInstanceB};

/// Virtual bases of the replayed arrays for one instance.
struct ArrayMap {
  sys::VAddr base[kArrayRefCount] = {};
};

/// Maps the shared input (owned by instance A, shared into B) and the
/// private arrays of one instance.
ArrayMap map_arrays(sys::MemorySystem& system, const CsrGraph& graph,
                    const WorkloadTrace& trace, dram::ActorId actor,
                    const ArrayMap* shared_from) {
  auto& vmem = system.vmem();
  ArrayMap m;
  const auto pages = [&](std::uint64_t bytes) {
    return (bytes + vmem.page_bytes() - 1) / vmem.page_bytes();
  };

  if (shared_from == nullptr) {
    const auto off_span = vmem.map_pages(
        actor, pages((graph.nodes() + 1) * sizeof(std::uint32_t)));
    const auto edge_span =
        vmem.map_pages(actor, pages(graph.edges() * sizeof(NodeId)));
    m.base[0] = off_span.vaddr;
    m.base[1] = edge_span.vaddr;
  } else {
    // Share instance A's graph frames (same vaddrs, same banks).
    m.base[0] = shared_from->base[0];
    m.base[1] = shared_from->base[1];
    const sys::VSpan off_span{
        shared_from->base[0],
        pages((graph.nodes() + 1) * sizeof(std::uint32_t)) *
            vmem.page_bytes()};
    const sys::VSpan edge_span{
        shared_from->base[1],
        pages(graph.edges() * sizeof(NodeId)) * vmem.page_bytes()};
    vmem.share(kInstanceA, actor, off_span);
    vmem.share(kInstanceA, actor, edge_span);
  }
  for (int p = 0; p < 3; ++p) {
    if (trace.private_elems[p] == 0) continue;
    const auto span = vmem.map_pages(
        actor, pages(trace.private_elems[p] * 4ull));
    m.base[2 + p] = span.vaddr;
  }
  return m;
}

// One front-end code byte per trace op: the cache level that served it
// (bits 0-1, cache::HitLevel), the TLB outcome (bits 2-3: L1 hit, L2 hit,
// walk) and the number of follow-on DRAM requests (bits 4-7: writebacks
// and prefetch fills, issued after the demand request of a miss).
constexpr unsigned kTlbShift = 2;
constexpr unsigned kFollowShift = 4;
constexpr unsigned kMaxFollowOns = 15;
constexpr unsigned kMemoryLevel =
    static_cast<unsigned>(cache::HitLevel::kMemory);

}  // namespace

struct FrontEnd {
  /// One instance's recorded stream.
  struct Stream {
    std::vector<std::uint8_t> codes;  ///< One per trace op (see above).
    /// Line index of every DRAM request, in issue order.
    std::vector<std::uint32_t> lines;
  };

  sys::SystemConfig system;  ///< The config it was recorded under.
  Stream instances[2];
  /// Cycles from an op's issue to its demand DRAM request (TLB plus cache
  /// lookups), by the low four bits of its code.
  util::Cycle pre_dram[16] = {};
  std::uint32_t line_shift = 0;
  std::uint64_t llc_misses = 0;
  /// The front end's `cache.*` and `tlb.*` counters, added into the
  /// calling cell's registry on every run.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

namespace {

/// True when the front end recorded under `a` is valid under `b`.
bool same_front_end(const sys::SystemConfig& a, const sys::SystemConfig& b) {
  return a.llc_bytes == b.llc_bytes && a.llc_ways == b.llc_ways &&
         a.cache_scale == b.cache_scale && a.prefetchers == b.prefetchers &&
         a.tlb == b.tlb && a.seed == b.seed && a.mapping == b.mapping &&
         a.dram.channels == b.dram.channels &&
         a.dram.ranks == b.dram.ranks &&
         a.dram.banks_per_rank == b.dram.banks_per_rank &&
         a.dram.rows_per_bank == b.dram.rows_per_bank &&
         a.dram.row_bytes == b.dram.row_bytes &&
         a.dram.subarray_rows == b.dram.subarray_rows;
}

/// Replays one instance's whole trace through its AccessPort with the
/// hierarchy in record mode. Sound because the instance's TLB and
/// hierarchy are private to it and none of their decisions reads the
/// clock or a DRAM result: the hits, misses, prefetches and writebacks
/// are the same under every row policy and every interleaving.
void record_instance(sys::MemorySystem& system, dram::ActorId actor,
                     const ArrayMap& map, const WorkloadTrace& trace,
                     const util::Cycle (&tlb_latency)[3],
                     const util::Cycle (&lookup_latency)[4],
                     FrontEnd::Stream& out) {
  cache::Hierarchy& hierarchy = system.hierarchy(actor);
  sys::MemorySystem::AccessPort port = system.port(actor);
  out.codes.reserve(trace.ops.size());
  hierarchy.set_dram_log(&out.lines);
  for (const TraceOp& op : trace.ops) {
    const std::size_t requests_before = out.lines.size();
    util::Cycle clock = 0;
    const sys::VAddr addr =
        map.base[static_cast<std::size_t>(op.array)] + op.index * 4ull;
    const sys::PathResult r = op.write ? port.store(addr, clock, op.pc)
                                       : port.load(addr, clock, op.pc);
    const auto level = static_cast<unsigned>(r.level);
    // Recorded requests cost nothing, so the latency is TLB + lookups.
    const util::Cycle translation = r.latency - lookup_latency[level];
    unsigned tlb = 0;
    while (tlb < 2 && tlb_latency[tlb] != translation) ++tlb;
    util::check(tlb_latency[tlb] == translation,
                "run_multiprogrammed: unrecognised TLB latency");
    const std::size_t follow_ons = out.lines.size() - requests_before -
                                   (level == kMemoryLevel ? 1 : 0);
    util::check(follow_ons <= kMaxFollowOns,
                "run_multiprogrammed: too many DRAM requests for one access");
    out.codes.push_back(static_cast<std::uint8_t>(
        level | (tlb << kTlbShift) | (follow_ons << kFollowShift)));
  }
  hierarchy.set_dram_log(nullptr);
  out.lines.shrink_to_fit();
}

std::shared_ptr<const FrontEnd> record_front_end(
    const sys::SystemConfig& sys_config, const WorkloadInput& input) {
  auto fe = std::make_shared<FrontEnd>();
  fe->system = sys_config;
  // The TLB and cache providers register in this scope rather than the
  // calling cell's; every run adds the recorded totals to its own cell.
  obs::Scope scope;
  {
    sys::MemorySystem system(sys_config);
    const ArrayMap map_a =
        map_arrays(system, input.graph, input.trace, kInstanceA, nullptr);
    const ArrayMap map_b =
        map_arrays(system, input.graph, input.trace, kInstanceB, &map_a);
    const ArrayMap* maps[2] = {&map_a, &map_b};

    const sys::TlbConfig& tlb = sys_config.tlb;
    const util::Cycle tlb_latency[3] = {
        tlb.l1.latency, tlb.l1.latency + tlb.l2.latency,
        tlb.l1.latency + tlb.l2.latency + tlb.walk_latency};
    const cache::HierarchyConfig& hc = system.hierarchy(kInstanceA).config();
    const util::Cycle lookup_latency[4] = {
        hc.l1.latency, hc.l1.latency + hc.l2.latency,
        hc.l1.latency + hc.l2.latency + hc.l3.latency,
        hc.l1.latency + hc.l2.latency + hc.l3.latency};
    for (unsigned t = 0; t < 3; ++t) {
      for (unsigned l = 0; l < 4; ++l) {
        fe->pre_dram[(t << kTlbShift) | l] =
            tlb_latency[t] + lookup_latency[l];
      }
    }
    const std::uint32_t line_bytes = hc.l1.line_bytes;
    util::check((line_bytes & (line_bytes - 1)) == 0,
                "run_multiprogrammed: line size must be a power of two");
    fe->line_shift = static_cast<std::uint32_t>(std::countr_zero(line_bytes));

    for (std::size_t i = 0; i < 2; ++i) {
      record_instance(system, kInstances[i], *maps[i], input.trace,
                      tlb_latency, lookup_latency, fe->instances[i]);
      fe->llc_misses += system.hierarchy(kInstances[i]).l3().stats().misses;
    }
  }  // The hierarchies and TLBs flush their providers here.
  for (const auto& [name, value] : scope.snapshot().counters) {
    if (name.starts_with("cache.") || name.starts_with("tlb.")) {
      fe->counters.emplace_back(name, value);
    }
  }
  return fe;
}

}  // namespace

FrontEndMemo& FrontEndMemo::operator=(const FrontEndMemo&) noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  entry_.reset();
  return *this;
}

std::shared_ptr<const FrontEnd> FrontEndMemo::get(
    const sys::SystemConfig& system,
    const std::function<std::shared_ptr<const FrontEnd>()>& build) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (entry_ == nullptr || !same_front_end(entry_->system, system)) {
    entry_ = build();
  }
  return entry_;
}

WorkloadInput build_input(const MultiprogConfig& config, WorkloadKind kind) {
  util::Xoshiro256 rng(config.graph_seed);
  WorkloadInput input;
  input.graph = CsrGraph::rmat(config.rmat_scale, config.edge_count, rng);
  input.trace = build_trace(kind, input.graph);
  util::check(!input.trace.ops.empty(), "build_input: empty trace");
  return input;
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             const WorkloadInput& input,
                             dram::RowPolicy policy) {
  const WorkloadTrace& trace = input.trace;
  util::check(!trace.ops.empty(), "run_multiprogrammed: empty trace");
  // Fig. 11 is a 2-core configuration.
  sys::SystemConfig sys_config = config.system;
  sys_config.cores = 2;
  sys_config.dram.policy = policy;
  const std::shared_ptr<const FrontEnd> fe = input.front_end.get(
      sys_config, [&] { return record_front_end(sys_config, input); });

  // Back end: a fresh controller per run, built as sys::MemorySystem
  // builds its own. Constructing it here (not sharing across cells) is
  // what makes concurrent cells of a sweep independent — and therefore
  // schedule-invariant.
  dram::MemoryController controller(sys_config.dram, sys_config.mapping,
                                    /*with_data=*/true);
  const std::uint32_t shift = fe->line_shift;
  const std::uint64_t offset_mask = (std::uint64_t{1} << shift) - 1;

  RunStats stats;
  // Replays one op: the same controller calls, at the same instants, as
  // the access through the TLB and hierarchy would make. The demand
  // request of a miss keeps its byte offset (the array bases are page
  // aligned, so it is the element's offset within its line).
  const auto replay_op = [&](const FrontEnd::Stream& stream,
                             dram::ActorId actor, std::size_t i,
                             std::size_t& next_request, util::Cycle& clock) {
    const TraceOp& op = trace.ops[i];
    clock += op.compute;
    // Rough instruction accounting: the access itself plus the surrounding
    // arithmetic (~1 instruction per modeled compute cycle on this core).
    stats.instructions += 1 + op.compute;
    const unsigned code = stream.codes[i];
    util::Cycle now = clock + fe->pre_dram[code & 0xF];
    if ((code & 0x3) == kMemoryLevel) {
      const dram::PhysAddr demand =
          (dram::PhysAddr{stream.lines[next_request++]} << shift) |
          ((op.index * 4ull) & offset_mask);
      now += controller.access(demand, now, actor).latency;
    }
    for (unsigned k = code >> kFollowShift; k > 0; --k) {
      controller.access(dram::PhysAddr{stream.lines[next_request++]} << shift,
                        now, actor);
    }
    clock = now;
  };

  const FrontEnd::Stream& stream_a = fe->instances[0];
  const FrontEnd::Stream& stream_b = fe->instances[1];
  util::Cycle clock_a = 0;
  util::Cycle clock_b = 0;
  std::size_t req_a = 0;
  std::size_t req_b = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  const std::size_t n = trace.ops.size();
  // Interleave the two instances by simulated time so their DRAM traffic
  // contends realistically on the shared banks. Each turn replays a *run*
  // of ops — the instance keeps going while it stays behind the other's
  // clock (or the other is done) — which picks exactly the op sequence the
  // per-op formulation would, with one turn decision per run instead of
  // per op.
  while (ia < n || ib < n) {
    const bool a_turn = ib >= n || (ia < n && clock_a <= clock_b);
    if (a_turn) {
      do {
        replay_op(stream_a, kInstanceA, ia, req_a, clock_a);
        ++ia;
      } while (ia < n && (ib >= n || clock_a <= clock_b));
    } else {
      do {
        replay_op(stream_b, kInstanceB, ib, req_b, clock_b);
        ++ib;
      } while (ib < n && (ia >= n || clock_b < clock_a));
    }
  }

  stats.cycles = std::max(clock_a, clock_b);
  stats.accesses = 2 * trace.ops.size();
  stats.llc_misses = fe->llc_misses;
  stats.row_hit_rate = controller.total_stats().hit_rate();
  if (obs::Registry* reg = obs::current_registry()) {
    for (const auto& [name, value] : fe->counters) {
      reg->counter(name).add(value);
    }
    reg->counter("graph.instructions").add(stats.instructions);
    reg->counter("graph.accesses").add(stats.accesses);
    reg->counter("graph.llc_misses").add(stats.llc_misses);
    reg->counter("graph.cycles").add(stats.cycles);
    reg->gauge("graph.row_hit_rate").set(stats.row_hit_rate);
    reg->gauge("graph.mpki").set(stats.mpki());
  }
  return stats;
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             WorkloadKind kind, dram::RowPolicy policy) {
  return run_multiprogrammed(config, build_input(config, kind), policy);
}

DefenseOverheads evaluate_defenses(const MultiprogConfig& config,
                                   WorkloadKind kind,
                                   exec::ThreadPool* pool) {
  const WorkloadInput input = build_input(config, kind);
  DefenseOverheads out;
  out.kind = kind;

  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  RunStats DefenseOverheads::* const kSlots[] = {
      &DefenseOverheads::open_row, &DefenseOverheads::closed_row,
      &DefenseOverheads::constant_time};
  const std::vector<RunStats> cells = exec::parallel_map<RunStats>(
      pool, 3, [&](std::size_t i) {
        return run_multiprogrammed(config, input, kPolicies[i]);
      });
  for (std::size_t i = 0; i < 3; ++i) out.*kSlots[i] = cells[i];
  return out;
}

std::vector<DefenseOverheads> evaluate_defense_matrix(
    const MultiprogConfig& config, std::span<const WorkloadKind> kinds,
    exec::ThreadPool* pool) {
  std::vector<DefenseOverheads> out(kinds.size());
  // Inputs live on the building worker's sweep arena rather than being
  // default-constructed up front and assigned across threads: each input is
  // created whole by its build task, dependents read it through the sweep's
  // build->run edges (which give the necessary happens-before), and the
  // Sweep destructor reclaims the storage after run() returns.
  std::vector<WorkloadInput*> inputs(kinds.size(), nullptr);

  constexpr dram::RowPolicy kPolicies[] = {dram::RowPolicy::kOpenRow,
                                           dram::RowPolicy::kClosedRow,
                                           dram::RowPolicy::kConstantTime};
  RunStats DefenseOverheads::* const kSlots[] = {
      &DefenseOverheads::open_row, &DefenseOverheads::closed_row,
      &DefenseOverheads::constant_time};

  // Task graph: each workload's input build feeds its three policy cells,
  // so cheap cells of one workload overlap the build of the next.
  exec::Sweep sweep(pool);
  for (std::size_t w = 0; w < kinds.size(); ++w) {
    out[w].kind = kinds[w];
    const exec::Sweep::TaskId build = sweep.add(
        "input:" + std::string(to_string(kinds[w])),
        // Sweep::run() returns before the enclosing scope unwinds, so
        // reference captures of the local grids are safe.
        [&, w] {
          inputs[w] =
              sweep.local_arena().make<WorkloadInput>(build_input(config,
                                                                  kinds[w]));
        });
    for (std::size_t p = 0; p < 3; ++p) {
      sweep.add("run:" + std::string(to_string(kinds[w])) + ":" +
                    to_string(kPolicies[p]),
                [&, w, p] {
                  out[w].*kSlots[p] =
                      run_multiprogrammed(config, *inputs[w], kPolicies[p]);
                },
                {build});
    }
  }
  sweep.run();
  return out;
}

}  // namespace impact::graph
