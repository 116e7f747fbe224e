#include "graph/multiprog.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

// SIMLINT-ALLOW(layering): the front end records on a thread pool.
#include "exec/thread_pool.hpp"
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

// Bounds of the packed FrontEnd::Event fields.
constexpr std::uint32_t kMaxGap = std::numeric_limits<std::uint32_t>::max();
constexpr util::Cycle kMaxLead = (util::Cycle{1} << 24) - 1;
constexpr unsigned kMaxFollowOns = 127;

}  // namespace

struct FrontEnd {
  /// One DRAM event: an op that sends at least one DRAM request, or a
  /// filler that splits a gap too long for 32 bits (no requests, lead 0).
  /// Its key — the instance's clock when the op starts — is the clock after
  /// the previous event plus `gap`.
  struct Event {
    std::uint32_t gap = 0;  ///< Cycles of the skipped ops since the last event.
    std::uint32_t lead : 24 = 0;  ///< This op's compute + TLB + lookups.
    std::uint32_t demand : 1 = 0;  ///< A miss: its demand request comes first.
    /// Writebacks and prefetch fills, sent when the demand completes.
    std::uint32_t follow_ons : 7 = 0;
  };
  static_assert(sizeof(Event) == 8);

  /// One instance's recorded stream.
  struct Stream {
    std::vector<Event> events;
    /// Every DRAM request in send order, as `(bank << row_bits) | row`.
    std::vector<std::uint32_t> requests;
    util::Cycle trailing_gap = 0;  ///< Cycles of the ops after the last event.
  };

  sys::SystemConfig system;  ///< The config it was recorded under.
  Stream instances[2];
  std::uint32_t row_bits = 0;
  std::uint64_t instructions = 0;  ///< Both instances; the same per policy.
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

/// One instance's recording as its worker fills it. Aligned to a cache
/// line, so the two workers' per-op writes (the vectors' end pointers)
/// never share one.
struct alignas(64) InstanceRecording {
  FrontEnd::Stream stream;
  std::uint64_t instructions = 0;
};

/// Replays one instance's whole trace through its AccessPort with the
/// hierarchy in record mode. Sound because the instance's TLB and
/// hierarchy are private to it and none of their decisions reads the
/// clock or a DRAM result: the hits, misses, prefetches and writebacks
/// are the same under every row policy and every interleaving. An op that
/// sends nothing to DRAM only advances its instance's clock, by the same
/// amount under every policy, so it folds into the next event's gap.
///
/// Touches nothing the other instance's recording touches, so the two may
/// run concurrently: the port (and its translation memo) is this call's
/// own copy, and `out` is this instance's slot.
void record_instance(cache::Hierarchy& hierarchy,
                     sys::MemorySystem::AccessPort port, const ArrayMap& map,
                     const WorkloadTrace& trace, InstanceRecording& out) {
  std::vector<FrontEnd::Event>& events = out.stream.events;
  std::vector<std::uint32_t>& log = out.stream.requests;
  hierarchy.set_dram_log(&log);
  util::Cycle gap = 0;
  std::uint64_t instructions = 0;
  for (const TraceOp& op : trace.ops) {
    const std::size_t requests_before = log.size();
    const sys::VAddr addr =
        map.base[static_cast<std::size_t>(op.array)] + op.index * 4ull;
    util::Cycle clock = 0;
    const sys::PathResult r = op.write ? port.store(addr, clock, op.pc)
                                       : port.load(addr, clock, op.pc);
    // Rough instruction accounting: the access itself plus the surrounding
    // arithmetic (~1 instruction per modeled compute cycle on this core).
    instructions += 1 + op.compute;
    // Recorded requests cost nothing, so the latency is TLB + lookups.
    const util::Cycle lead = op.compute + r.latency;
    const std::size_t requests = log.size() - requests_before;
    if (requests == 0) {
      gap += lead;
      continue;
    }
    const bool demand = r.level == cache::HitLevel::kMemory;
    const std::size_t follow_ons = requests - (demand ? 1 : 0);
    util::check(follow_ons <= kMaxFollowOns,
                "run_multiprogrammed: too many DRAM requests for one access");
    util::check(lead <= kMaxLead,
                "run_multiprogrammed: access latency exceeds 24 bits");
    for (; gap > kMaxGap; gap -= kMaxGap) {
      events.push_back({.gap = kMaxGap});
    }
    FrontEnd::Event event;
    event.gap = static_cast<std::uint32_t>(gap);
    event.lead = static_cast<std::uint32_t>(lead);
    event.demand = demand ? 1 : 0;
    event.follow_ons = static_cast<std::uint32_t>(follow_ons);
    events.push_back(event);
    gap = 0;
  }
  hierarchy.set_dram_log(nullptr);
  out.stream.trailing_gap = gap;
  out.instructions = instructions;
}

/// Rewrites a stream's logged line indexes in place as packed (bank, row)
/// words. The column is dropped: the controller's access is decode plus
/// access_row, and access_row reads only the bank and row.
void decode_requests(const dram::AddressMapping& mapping,
                     std::uint32_t line_shift, std::uint32_t row_bits,
                     std::vector<std::uint32_t>& requests) {
  for (std::uint32_t& word : requests) {
    const dram::DramAddress loc =
        mapping.decode(dram::PhysAddr{word} << line_shift);
    word = static_cast<std::uint32_t>(
        (std::uint64_t{loc.bank} << row_bits) | loc.row);
  }
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

    const dram::AddressMapping& mapping = system.controller().mapping();
    const std::uint32_t line_bytes =
        system.hierarchy(kInstanceA).config().l1.line_bytes;
    util::check((line_bytes & (line_bytes - 1)) == 0,
                "run_multiprogrammed: line size must be a power of two");
    // Row sizes are powers of two too, so a line lies within one row.
    util::check(line_bytes <= mapping.row_bytes(),
                "run_multiprogrammed: a line must not span DRAM rows");
    const auto line_shift =
        static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    fe->row_bits =
        static_cast<std::uint32_t>(std::bit_width(mapping.rows() - 1));
    util::check(std::bit_width(mapping.banks() - 1) + fe->row_bits <= 32,
                "run_multiprogrammed: bank and row exceed 32 bits");

    const std::uint32_t row_bits = fe->row_bits;

    // The two recordings share no state, so they run on up to two threads
    // (docs/performance.md, "Recording the two instances concurrently").
    // What they look up by actor (contexts, translation views) is created
    // here, which also registers the TLB and cache providers in this
    // thread's scope. The streams are reserved here and trimmed here after
    // the join, so a worker leaves nothing in its malloc arena: one event
    // per op is a strict bound, and one request per op covers every
    // default-grid input (a longer request stream grows on the worker,
    // which is still correct).
    cache::Hierarchy* const hierarchies[2] = {
        &system.hierarchy(kInstanceA), &system.hierarchy(kInstanceB)};
    const sys::MemorySystem::AccessPort ports[2] = {system.port(kInstanceA),
                                                    system.port(kInstanceB)};
    InstanceRecording recordings[2];
    for (InstanceRecording& recording : recordings) {
      recording.stream.events.reserve(input.trace.ops.size());
      recording.stream.requests.reserve(input.trace.ops.size());
    }
    exec::ThreadPool(std::min(2u, exec::ThreadPool::default_threads()))
        .for_each_index(2, [&](std::size_t i) {
          record_instance(*hierarchies[i], ports[i], *maps[i], input.trace,
                          recordings[i]);
          decode_requests(mapping, line_shift, row_bits,
                          recordings[i].stream.requests);
        });

    for (std::size_t i = 0; i < 2; ++i) {
      FrontEnd::Stream& stream = fe->instances[i];
      stream = std::move(recordings[i].stream);
      stream.events.shrink_to_fit();
      stream.requests.shrink_to_fit();
      fe->instructions += recordings[i].instructions;
      fe->llc_misses += hierarchies[i]->l3().stats().misses;
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

std::uint64_t FrontEndMemo::dram_requests() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (entry_ == nullptr) return 0;
  return entry_->instances[0].requests.size() +
         entry_->instances[1].requests.size();
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
  const std::uint32_t row_bits = fe->row_bits;
  const std::uint64_t row_mask = (std::uint64_t{1} << row_bits) - 1;
  const auto access = [&](std::uint32_t request, util::Cycle now,
                          dram::ActorId actor) {
    return controller.access_row(
        static_cast<dram::BankId>(std::uint64_t{request} >> row_bits),
        static_cast<dram::RowId>(request & row_mask), now, actor);
  };

  struct Cursor {
    const FrontEnd::Event* next;
    const FrontEnd::Event* end;
    const std::uint32_t* request;
    util::Cycle clock = 0;
  };
  const auto cursor = [](const FrontEnd::Stream& s) {
    return Cursor{s.events.data(), s.events.data() + s.events.size(),
                  s.requests.data()};
  };
  Cursor a = cursor(fe->instances[0]);
  Cursor b = cursor(fe->instances[1]);
  // Replays one event: the same controller calls, at the same instants, as
  // the access through the TLB and hierarchy would make.
  const auto replay = [&](Cursor& c, dram::ActorId actor) {
    const FrontEnd::Event e = *c.next++;
    util::Cycle now = c.clock + e.gap + e.lead;
    if (e.demand != 0) now += access(*c.request++, now, actor).latency;
    for (std::uint32_t k = e.follow_ons; k > 0; --k) {
      (void)access(*c.request++, now, actor);
    }
    c.clock = now;
  };
  constexpr util::Cycle kNever = std::numeric_limits<util::Cycle>::max();
  const auto key = [](const Cursor& c) {
    return c.next == c.end ? kNever : c.clock + c.next->gap;
  };
  // The per-op interleave runs the instance whose clock is behind, A on
  // ties, so the controller sees the two instances' events merged on their
  // keys, A first on equal keys: B's clock cannot pass its next key before
  // that event runs, so A's next event runs first exactly when its key is
  // not greater.
  while (a.next != a.end || b.next != b.end) {
    if (key(a) <= key(b)) {
      replay(a, kInstanceA);
    } else {
      replay(b, kInstanceB);
    }
  }
  const util::Cycle clock_a = a.clock + fe->instances[0].trailing_gap;
  const util::Cycle clock_b = b.clock + fe->instances[1].trailing_gap;

  RunStats stats;
  stats.instructions = fe->instructions;
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
