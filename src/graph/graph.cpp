#include "graph/graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace impact::graph {

CsrGraph::CsrGraph(NodeId nodes, std::vector<std::uint32_t> offsets,
                   std::vector<NodeId> edges)
    : nodes_(nodes), offsets_(std::move(offsets)), edges_(std::move(edges)) {
  util::check(offsets_.size() == static_cast<std::size_t>(nodes) + 1,
              "CsrGraph: offsets size must be nodes+1");
  util::check(offsets_.back() == edges_.size(),
              "CsrGraph: last offset must equal edge count");
}

CsrGraph CsrGraph::from_pairs(
    NodeId nodes, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<std::uint32_t> offsets(nodes + 1, 0);
  for (const auto& [u, v] : pairs) {
    util::check(u < nodes && v < nodes, "CsrGraph: edge endpoint OOB");
    ++offsets[u + 1];
  }
  for (NodeId u = 0; u < nodes; ++u) offsets[u + 1] += offsets[u];
  // Counting sort on u through per-row cursors, then each row sorted on
  // v: the pairs' lexicographic order, duplicates included.
  std::vector<NodeId> edges(pairs.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : pairs) edges[cursor[u]++] = v;
  for (NodeId u = 0; u < nodes; ++u) {
    std::sort(edges.begin() + offsets[u], edges.begin() + offsets[u + 1]);
  }
  return CsrGraph(nodes, std::move(offsets), std::move(edges));
}

CsrGraph CsrGraph::uniform(NodeId nodes, std::size_t edges,
                           util::Xoshiro256& rng) {
  util::check(nodes > 1, "CsrGraph::uniform: need >= 2 nodes");
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes));
    if (v == u) v = (v + 1) % nodes;
    pairs.emplace_back(u, v);
  }
  return from_pairs(nodes, pairs);
}

CsrGraph CsrGraph::rmat(std::uint32_t scale, std::size_t edges,
                        util::Xoshiro256& rng) {
  util::check(scale >= 1 && scale <= 30, "CsrGraph::rmat: scale in [1,30]");
  const NodeId nodes = 1u << scale;
  constexpr double kA = 0.57;
  constexpr double kB = 0.19;
  constexpr double kC = 0.19;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    // One draw per level picks the quadrant: [0,a) none, [a,a+b) v,
    // [a+b,a+b+c) u, the rest both. The bits are combined with & and |,
    // not && and ||, so no branch depends on the random draw.
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      const NodeId u_bit = r >= kA + kB;
      const NodeId v_bit =
          (NodeId{r >= kA} & NodeId{r < kA + kB}) | NodeId{r >= kA + kB + kC};
      u |= u_bit << bit;
      v |= v_bit << bit;
    }
    if (u == v) v = (v + 1) % nodes;
    pairs.emplace_back(u, v);
  }
  return from_pairs(nodes, pairs);
}

}  // namespace impact::graph
