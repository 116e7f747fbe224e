#include "graph/workload.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace impact::graph {

Emitter::Site Emitter::read(ArrayRef array, std::uint16_t compute,
                            std::uint16_t pc) {
  return declare({.pc = pc, .compute = compute, .array = array});
}

Emitter::Site Emitter::write(ArrayRef array, std::uint16_t compute,
                             std::uint16_t pc) {
  return declare(
      {.pc = pc, .compute = compute, .array = array, .write = true});
}

Emitter::Site Emitter::declare(const TraceSite& site) {
  util::check(site.pc < kTracePcLimit, "Emitter: pc must fit TraceSite::pc");
  util::check(trace_->sites.size() < kTraceSiteLimit,
              "Emitter: a trace has at most kTraceSiteLimit sites");
  trace_->sites.push_back(site);
  return static_cast<Site>(trace_->sites.size() - 1);
}

namespace {

/// BFS from node 0: offsets/edges streamed per frontier node, random
/// parent-array probes. High MPKI, low row locality on node state.
WorkloadTrace trace_bfs(const CsrGraph& g) {
  WorkloadTrace t;
  t.kind = WorkloadKind::kBFS;
  t.private_elems[0] = g.nodes();  // parent array
  Emitter e(t);
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 3, 10);
  const Emitter::Site offset_next = e.read(ArrayRef::kOffsets, 1, 11);
  const Emitter::Site edge = e.read(ArrayRef::kEdges, 2, 12);
  const Emitter::Site parent_v = e.read(ArrayRef::kPrivate0, 2, 13);
  const Emitter::Site set_parent = e.write(ArrayRef::kPrivate0, 1, 14);
  std::vector<NodeId> parent(g.nodes(), ~0u);
  std::deque<NodeId> frontier{0};
  parent[0] = 0;
  std::uint64_t visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    e.emit(offset_u, u);
    e.emit(offset_next, u + 1);
    for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
      e.emit(edge, i);
      const NodeId v = g.edge(i);
      e.emit(parent_v, v);
      if (parent[v] == ~0u) {
        parent[v] = u;
        e.emit(set_parent, v);
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
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 6, 20);
  const Emitter::Site edge = e.read(ArrayRef::kEdges, 8, 21);
  const Emitter::Site rank_v = e.read(ArrayRef::kPrivate0, 10, 22);
  const Emitter::Site set_next = e.write(ArrayRef::kPrivate1, 6, 23);
  std::vector<double> rank(g.nodes(), 1.0 / g.nodes());
  std::vector<double> next(g.nodes(), 0.0);
  for (int iter = 0; iter < 2; ++iter) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.emit(offset_u, u);
      double acc = 0.0;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.emit(edge, i);
        const NodeId v = g.edge(i);
        e.emit(rank_v, v);
        const std::uint32_t deg = std::max(1u, g.degree(v));
        acc += rank[v] / deg;
      }
      next[u] = 0.15 / g.nodes() + 0.85 * acc;
      e.emit(set_next, u);
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
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 1, 30);
  const Emitter::Site label_u = e.read(ArrayRef::kPrivate0, 1, 31);
  const Emitter::Site edge = e.read(ArrayRef::kEdges, 1, 32);
  const Emitter::Site label_v = e.read(ArrayRef::kPrivate0, 1, 33);
  const Emitter::Site set_label = e.write(ArrayRef::kPrivate0, 1, 34);
  std::vector<NodeId> label(g.nodes());
  for (NodeId u = 0; u < g.nodes(); ++u) label[u] = u;
  for (int iter = 0; iter < 2; ++iter) {
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.emit(offset_u, u);
      NodeId best = label[u];
      e.emit(label_u, u);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.emit(edge, i);
        const NodeId v = g.edge(i);
        e.emit(label_v, v);
        best = std::min(best, label[v]);
      }
      if (best != label[u]) {
        label[u] = best;
        e.emit(set_label, u);
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
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 4, 40);
  const Emitter::Site edge_u = e.read(ArrayRef::kEdges, 4, 41);
  const Emitter::Site offset_v = e.read(ArrayRef::kOffsets, 4, 42);
  const Emitter::Site adj_u = e.read(ArrayRef::kEdges, 5, 43);
  const Emitter::Site adj_v = e.read(ArrayRef::kEdges, 5, 44);
  std::uint64_t triangles = 0;
  // Cap per-node work to keep the trace bounded on skewed graphs.
  constexpr std::uint32_t kDegCap = 64;
  for (NodeId u = 0; u < g.nodes(); ++u) {
    e.emit(offset_u, u);
    const std::uint32_t du = std::min(g.degree(u), kDegCap);
    for (std::uint32_t i = g.offset(u); i < g.offset(u) + du; ++i) {
      e.emit(edge_u, i);
      const NodeId v = g.edge(i);
      if (v <= u) continue;
      e.emit(offset_v, v);
      const std::uint32_t dv = std::min(g.degree(v), kDegCap);
      // Two-pointer intersection of adj(u) and adj(v).
      std::uint32_t a = g.offset(u);
      std::uint32_t b = g.offset(v);
      const std::uint32_t a_end = g.offset(u) + du;
      const std::uint32_t b_end = g.offset(v) + dv;
      while (a < a_end && b < b_end) {
        e.emit(adj_u, a);
        e.emit(adj_v, b);
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
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 25, 50);
  const Emitter::Site edge = e.read(ArrayRef::kEdges, 20, 51);
  const Emitter::Site dist_v = e.read(ArrayRef::kPrivate1, 20, 52);
  const Emitter::Site set_dist = e.write(ArrayRef::kPrivate1, 15, 53);
  const Emitter::Site add_sigma = e.write(ArrayRef::kPrivate0, 15, 54);
  const Emitter::Site back_offset_u = e.read(ArrayRef::kOffsets, 25, 55);
  const Emitter::Site back_edge = e.read(ArrayRef::kEdges, 20, 56);
  const Emitter::Site delta_v = e.read(ArrayRef::kPrivate2, 20, 57);
  const Emitter::Site set_delta = e.write(ArrayRef::kPrivate2, 15, 58);
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
      e.emit(offset_u, u);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.emit(edge, i);
        const NodeId v = g.edge(i);
        e.emit(dist_v, v);
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          e.emit(set_dist, v);
          q.push_back(v);
        }
        if (dist[v] == dist[u] + 1) {
          sigma[v] += sigma[u];
          e.emit(add_sigma, v);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      e.emit(back_offset_u, u);
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.emit(back_edge, i);
        const NodeId v = g.edge(i);
        if (dist[v] == dist[u] + 1 && sigma[v] > 0) {
          delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
          e.emit(delta_v, v);
          e.emit(set_delta, u);
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
  const Emitter::Site offset_u = e.read(ArrayRef::kOffsets, 3, 60);
  const Emitter::Site dist_u = e.read(ArrayRef::kPrivate0, 2, 61);
  const Emitter::Site edge = e.read(ArrayRef::kEdges, 3, 62);
  const Emitter::Site dist_v = e.read(ArrayRef::kPrivate0, 3, 63);
  const Emitter::Site set_dist = e.write(ArrayRef::kPrivate0, 2, 64);
  constexpr std::uint64_t kInf = ~0ull;
  std::vector<std::uint64_t> dist(g.nodes(), kInf);
  dist[0] = 0;
  bool changed = true;
  for (int round = 0; round < 3 && changed; ++round) {
    changed = false;
    for (NodeId u = 0; u < g.nodes(); ++u) {
      e.emit(offset_u, u);
      e.emit(dist_u, u);
      if (dist[u] == kInf) continue;
      for (std::uint32_t i = g.offset(u); i < g.offset(u + 1); ++i) {
        e.emit(edge, i);
        const NodeId v = g.edge(i);
        const std::uint64_t w = 1 + (v & 7);  // Deterministic weights.
        e.emit(dist_v, v);
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          e.emit(set_dist, v);
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

WorkloadTrace trace_of(WorkloadKind kind, const CsrGraph& graph) {
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

}  // namespace

WorkloadTrace build_trace(WorkloadKind kind, const CsrGraph& graph) {
  WorkloadTrace trace = trace_of(kind, graph);
  // The ops grew by doubling; a trace is read-only from here on.
  trace.ops.shrink_to_fit();
  return trace;
}

}  // namespace impact::graph
