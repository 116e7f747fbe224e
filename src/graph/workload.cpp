#include "graph/workload.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace impact::graph {

namespace {

/// Trace emission helper: appends ops while the kernel computes for real.
class Emitter {
 public:
  explicit Emitter(WorkloadTrace& trace) : trace_(&trace) {}

  void read(ArrayRef a, std::uint32_t i, std::uint16_t compute,
            std::uint16_t pc) {
    trace_->ops.push_back(
        TraceOp{.index = i, .compute = compute, .pc = pc, .array = a});
  }
  void write(ArrayRef a, std::uint32_t i, std::uint16_t compute,
             std::uint16_t pc) {
    trace_->ops.push_back(TraceOp{
        .index = i, .compute = compute, .pc = pc, .array = a, .write = true});
  }

 private:
  WorkloadTrace* trace_;
};

/// BFS from node 0: offsets/edges streamed per frontier node, random
/// parent-array probes. High MPKI, low row locality on node state.
WorkloadTrace trace_bfs(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kBFS;
  t.private_elems[0] = g.nodes();  // parent array
  Emitter e(t);
  std::vector<NodeId> parent(g.nodes(), ~0u);
  std::deque<NodeId> frontier{0};
  parent[0] = 0;
  std::uint64_t visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    e.read(ArrayRef::kOffsets, u, 3, 10);
    e.read(ArrayRef::kOffsets, u + 1, 1, 11);
    for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
      e.read(ArrayRef::kEdges, i, 2, 12);
      const NodeId v = g.edge(i);
      e.read(ArrayRef::kPrivate0, v, 2, 13);
      if (parent[v] == ~0u) {
        parent[v] = u;
        e.write(ArrayRef::kPrivate0, v, 1, 14);
        frontier.push_back(v);
        ++visited;
      }
    }
  }
  t.checksum = visited;
  return t;
}

/// Two pull-style PageRank iterations: fully streaming over offsets/edges
/// with random rank gathers; high spatial/row locality, low MPKI thanks to
/// the arithmetic per edge.
WorkloadTrace trace_pr(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kPR;
  t.private_elems[0] = g.nodes();  // rank
  t.private_elems[1] = g.nodes();  // next
  Emitter e(t);
  std::vector<double> rank(g.nodes(), 1.0 / g.nodes());
  std::vector<double> next(g.nodes(), 0.0);
  for (int iter = 0; iter < 2; ++iter) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.read(ArrayRef::kOffsets, u, 6, 20);
      double acc = 0.0;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.read(ArrayRef::kEdges, i, 8, 21);
        const NodeId v = g.edge(i);
        e.read(ArrayRef::kPrivate0, v, 10, 22);
        const std::uint32_t deg = std::max(1u, g.degree(v));
        acc += rank[v] / deg;
      }
      next[u] = 0.15 / g.nodes() + 0.85 * acc;
      e.write(ArrayRef::kPrivate1, u, 6, 23);
    }
    std::swap(rank, next);
  }
  double sum = 0.0;
  for (double r : rank) sum += r;
  t.checksum = static_cast<std::uint64_t>(sum * 1e6);
  return t;
}

/// Two label-propagation rounds of connected components: like PR but with
/// minimal arithmetic -> the highest MPKI of the suite.
WorkloadTrace trace_cc(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kCC;
  t.private_elems[0] = g.nodes();  // labels
  Emitter e(t);
  std::vector<NodeId> label(g.nodes());
  for (NodeId u = 0; u < g.nodes(); ++u) label[u] = u;
  for (int iter = 0; iter < 2; ++iter) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.read(ArrayRef::kOffsets, u, 1, 30);
      NodeId best = label[u];
      e.read(ArrayRef::kPrivate0, u, 1, 31);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.read(ArrayRef::kEdges, i, 1, 32);
        const NodeId v = g.edge(i);
        e.read(ArrayRef::kPrivate0, v, 1, 33);
        best = std::min(best, label[v]);
      }
      if (best != label[u]) {
        label[u] = best;
        e.write(ArrayRef::kPrivate0, u, 1, 34);
      }
    }
  }
  std::uint64_t components = 0;
  for (NodeId u = 0; u < g.nodes(); ++u) components += (label[u] == u);
  t.checksum = components;
  return t;
}

/// Triangle counting by sorted-adjacency intersection: two-pointer scans of
/// the edge array (good spatial locality), moderate arithmetic.
WorkloadTrace trace_tc(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kTC;
  Emitter e(t);
  std::uint64_t triangles = 0;
  // Cap per-node work to keep the trace bounded on skewed graphs.
  constexpr std::uint32_t kDegCap = 64;
  for (NodeId u = 0; u < g.nodes(); ++u) {
    e.read(ArrayRef::kOffsets, u, 4, 40);
    const std::uint32_t du = std::min(g.degree(u), kDegCap);
    for (std::uint32_t i = g.offset(u); i < g.offset(u) + du; ++i) {
      e.read(ArrayRef::kEdges, i, 4, 41);
      const NodeId v = g.edge(i);
      if (v <= u) continue;
      e.read(ArrayRef::kOffsets, v, 4, 42);
      const std::uint32_t dv = std::min(g.degree(v), kDegCap);
      // Two-pointer intersection of adj(u) and adj(v).
      std::uint32_t a = g.offset(u);
      std::uint32_t b = g.offset(v);
      const std::uint32_t a_end = g.offset(u) + du;
      const std::uint32_t b_end = g.offset(v) + dv;
      while (a < a_end && b < b_end) {
        e.read(ArrayRef::kEdges, a, 5, 43);
        e.read(ArrayRef::kEdges, b, 5, 44);
        if (g.edge(a) == g.edge(b)) {
          ++triangles;
          ++a;
          ++b;
        } else if (g.edge(a) < g.edge(b)) {
          ++a;
        } else {
          ++b;
        }
      }
    }
  }
  t.checksum = triangles;
  return t;
}

/// Betweenness centrality (Brandes) from a few sources: BFS passes plus a
/// dependency back-propagation, with heavy arithmetic per access (the
/// lowest MPKI of the suite, as in the paper's characterization).
WorkloadTrace trace_bc(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kBC;
  t.private_elems[0] = g.nodes();  // sigma (path counts)
  t.private_elems[1] = g.nodes();  // dist
  t.private_elems[2] = g.nodes();  // delta (dependencies)
  Emitter e(t);
  std::vector<double> centrality(g.nodes(), 0.0);
  constexpr NodeId kSources = 2;
  for (NodeId s = 0; s < kSources; ++s) {
    std::vector<std::int64_t> dist(g.nodes(), -1);
    std::vector<double> sigma(g.nodes(), 0.0);
    std::vector<double> delta(g.nodes(), 0.0);
    std::vector<NodeId> order;
    std::deque<NodeId> q{s};
    dist[s] = 0;
    sigma[s] = 1.0;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      order.push_back(u);
      e.read(ArrayRef::kOffsets, u, 25, 50);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.read(ArrayRef::kEdges, i, 20, 51);
        const NodeId v = g.edge(i);
        e.read(ArrayRef::kPrivate1, v, 20, 52);
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          e.write(ArrayRef::kPrivate1, v, 15, 53);
          q.push_back(v);
        }
        if (dist[v] == dist[u] + 1) {
          sigma[v] += sigma[u];
          e.write(ArrayRef::kPrivate0, v, 15, 54);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      e.read(ArrayRef::kOffsets, u, 25, 55);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.read(ArrayRef::kEdges, i, 20, 56);
        const NodeId v = g.edge(i);
        if (dist[v] == dist[u] + 1 && sigma[v] > 0) {
          delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
          e.read(ArrayRef::kPrivate2, v, 20, 57);
          e.write(ArrayRef::kPrivate2, u, 15, 58);
        }
      }
      if (u != s) centrality[u] += delta[u];
    }
  }
  double sum = 0.0;
  for (double c : centrality) sum += c;
  t.checksum = static_cast<std::uint64_t>(sum * 1e3);
  return t;
}

/// Bellman-Ford-style single-source shortest paths (unit weights derived
/// from the edge target, making the relaxation data-dependent): frontier
/// scans over offsets/edges with random distance-array probes and
/// moderate arithmetic.
WorkloadTrace trace_sssp(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kSSSP;
  t.private_elems[0] = g.nodes();  // dist
  Emitter e(t);
  constexpr std::uint64_t kInf = ~0ull;
  std::vector<std::uint64_t> dist(g.nodes(), kInf);
  dist[0] = 0;
  bool changed = true;
  for (int round = 0; round < 3 && changed; ++round) {
    changed = false;
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.read(ArrayRef::kOffsets, u, 3, 60);
      e.read(ArrayRef::kPrivate0, u, 2, 61);
      if (dist[u] == kInf) continue;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.read(ArrayRef::kEdges, i, 3, 62);
        const NodeId v = g.edge(i);
        const std::uint64_t w = 1 + (v & 7);  // Deterministic weights.
        e.read(ArrayRef::kPrivate0, v, 3, 63);
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          e.write(ArrayRef::kPrivate0, v, 2, 64);
          changed = true;
        }
      }
    }
  }
  std::uint64_t sum = 0;
  for (auto d : dist) {
    if (d != kInf) sum += d;
  }
  t.checksum = sum;
  return t;
}

}  // namespace

WorkloadTrace build_trace(WorkloadKind kind, const CsrGraph& graph) {
  switch (kind) {
    case WorkloadKind::kBC:
      return trace_bc(graph);
    case WorkloadKind::kBFS:
      return trace_bfs(graph);
    case WorkloadKind::kCC:
      return trace_cc(graph);
    case WorkloadKind::kTC:
      return trace_tc(graph);
    case WorkloadKind::kPR:
      return trace_pr(graph);
    case WorkloadKind::kSSSP:
      return trace_sssp(graph);
  }
  util::check(false, "build_trace: unknown workload");
  return {};
}

}  // namespace impact::graph
