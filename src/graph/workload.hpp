// Graph workload kernels (GraphBIG substitution) expressed as symbolic
// memory traces.
//
// Each kernel runs its real algorithm over the CSR graph while emitting the
// sequence of data-structure accesses it performs; the multiprogrammed
// runner (multiprog.hpp) replays those traces through the simulated memory
// system under each row policy. Per-site `compute` weights model the
// arithmetic between accesses and shape each workload's MPKI the way the
// paper characterizes them (BC 0.57, BFS 38.6, CC 45.2, TC 5.1, PR 1.9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace impact::graph {

enum class WorkloadKind : std::uint8_t { kBC, kBFS, kCC, kTC, kPR, kSSSP };

[[nodiscard]] constexpr const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kBC:
      return "BC";
    case WorkloadKind::kBFS:
      return "BFS";
    case WorkloadKind::kCC:
      return "CC";
    case WorkloadKind::kTC:
      return "TC";
    case WorkloadKind::kPR:
      return "PR";
    case WorkloadKind::kSSSP:
      return "SSSP";
  }
  return "?";
}

/// The paper's Fig. 11 mix.
constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kBC, WorkloadKind::kBFS, WorkloadKind::kCC,
    WorkloadKind::kTC, WorkloadKind::kPR};

/// Extension: the mix plus single-source shortest paths.
constexpr WorkloadKind kExtendedWorkloads[] = {
    WorkloadKind::kBC, WorkloadKind::kBFS,  WorkloadKind::kCC,
    WorkloadKind::kTC, WorkloadKind::kPR,   WorkloadKind::kSSSP};

/// Which logical array an access touches. Offsets/edges are the *shared*
/// input; private arrays are per-instance state.
enum class ArrayRef : std::uint8_t {
  kOffsets,
  kEdges,
  kPrivate0,
  kPrivate1,
  kPrivate2,
};
inline constexpr std::size_t kArrayRefCount = 5;

/// The fields every op of one emission point shares: one `Emitter::read`
/// or `Emitter::write` declaration in a kernel.
struct TraceSite {
  /// Synthetic instruction address (prefetchers), below kTracePcLimit.
  std::uint16_t pc = 0;
  std::uint16_t compute = 0;  ///< CPU cycles before each access.
  ArrayRef array = ArrayRef::kOffsets;
  bool write = false;
};

/// Exclusive bound of TraceSite::pc.
inline constexpr std::uint32_t kTracePcLimit = 1u << 12;
/// Exclusive bounds of TraceOp's two fields: a trace has at most 64 sites.
inline constexpr std::uint32_t kTraceSiteLimit = 1u << 6;
inline constexpr std::uint32_t kTraceIndexLimit = 1u << 26;

/// Packs into 4 bytes (traces run to millions of ops per workload): the
/// op's site in its trace's site table and the element it touches.
struct TraceOp {
  std::uint32_t site : 6 = 0;    ///< Index into WorkloadTrace::sites.
  std::uint32_t index : 26 = 0;  ///< Element index (4-byte elements).
};
static_assert(sizeof(TraceOp) == 4);

struct WorkloadTrace {
  WorkloadKind kind = WorkloadKind::kBFS;
  /// At most kTraceSiteLimit entries; every op's site indexes this table.
  std::vector<TraceSite> sites;
  std::vector<TraceOp> ops;
  /// Elements needed in each private array (0 if unused).
  std::uint32_t private_elems[3] = {0, 0, 0};
  /// Algorithm-level result checksum (validates the kernels in tests).
  std::uint64_t checksum = 0;
};

/// Appends ops to a trace while a kernel computes for real. A kernel
/// declares each emission site once, then emits `(site, index)` pairs;
/// the bounds of both fields are checked here, so a trace built through
/// an Emitter is always well-formed.
class Emitter {
 public:
  using Site = std::uint8_t;

  explicit Emitter(WorkloadTrace& trace) : trace_(&trace) {}

  /// Declares a read (write) site. Rejects a pc at or above kTracePcLimit
  /// and a site past the trace's kTraceSiteLimit-th.
  [[nodiscard]] Site read(ArrayRef array, std::uint16_t compute,
                          std::uint16_t pc);
  [[nodiscard]] Site write(ArrayRef array, std::uint16_t compute,
                           std::uint16_t pc);

  // SIMLINT-HOT-BEGIN: per-op emission — no allocation beyond the op
  // vector's growth, no std::string (docs/static-analysis.md).
  /// Appends one op of `site` on element `index`. Rejects an index at or
  /// above kTraceIndexLimit and a site this trace has not declared.
  void emit(Site site, std::uint32_t index) {
    util::check(index < kTraceIndexLimit && site < trace_->sites.size(),
                "Emitter: op must fit TraceOp");
    trace_->ops.push_back(TraceOp{.site = site, .index = index});
  }
  // SIMLINT-HOT-END

 private:
  Site declare(const TraceSite& site);

  WorkloadTrace* trace_;
};

/// Generates the access trace of one instance of `kind` over `graph`. Its
/// ops hold no spare capacity.
[[nodiscard]] WorkloadTrace build_trace(WorkloadKind kind,
                                        const CsrGraph& graph);

}  // namespace impact::graph
