// Graph workload kernels (GraphBIG substitution) expressed as symbolic
// memory traces.
//
// Each kernel runs its real algorithm over the CSR graph while emitting the
// sequence of data-structure accesses it performs; the multiprogrammed
// runner (multiprog.hpp) replays those traces through the simulated memory
// system under each row policy. Per-op `compute` weights model the
// arithmetic between accesses and shape each workload's MPKI the way the
// paper characterizes them (BC 0.57, BFS 38.6, CC 45.2, TC 5.1, PR 1.9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

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

/// Fields ordered widest first so the op packs into 12 bytes (traces run
/// to millions of ops per workload).
struct TraceOp {
  std::uint32_t index = 0;    ///< Element index (4-byte elements).
  std::uint16_t compute = 0;  ///< CPU cycles before this access.
  std::uint16_t pc = 0;       ///< Synthetic instruction address (prefetchers).
  ArrayRef array = ArrayRef::kOffsets;
  bool write = false;
};
static_assert(sizeof(TraceOp) == 12);

struct WorkloadTrace {
  WorkloadKind kind = WorkloadKind::kBFS;
  std::vector<TraceOp> ops;
  /// Elements needed in each private array (0 if unused).
  std::uint32_t private_elems[3] = {0, 0, 0};
  /// Algorithm-level result checksum (validates the kernels in tests).
  std::uint64_t checksum = 0;
};

/// Generates the access trace of one instance of `kind` over `graph`.
[[nodiscard]] WorkloadTrace build_trace(WorkloadKind kind,
                                        const CsrGraph& graph);

}  // namespace impact::graph
