// Compressed-sparse-row graphs and synthetic generators for the GraphBIG
// workload substitution (Fig. 11).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace impact::graph {

using NodeId = std::uint32_t;

class CsrGraph {
 public:
  CsrGraph() = default;
  CsrGraph(NodeId nodes, std::vector<std::uint32_t> offsets,
           std::vector<NodeId> edges);

  /// Uniform random (Erdős–Rényi-ish) multigraph with `edges` directed
  /// edges over `nodes` vertices.
  static CsrGraph uniform(NodeId nodes, std::size_t edges,
                          util::Xoshiro256& rng);

  /// RMAT generator (a=0.57,b=0.19,c=0.19): skewed degree distribution as
  /// in real-world graphs. `scale` => 2^scale vertices.
  static CsrGraph rmat(std::uint32_t scale, std::size_t edges,
                       util::Xoshiro256& rng);

  [[nodiscard]] NodeId nodes() const { return nodes_; }
  [[nodiscard]] std::size_t edges() const { return edges_.size(); }
  [[nodiscard]] std::uint32_t degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }
  [[nodiscard]] std::uint32_t offset(NodeId u) const { return offsets_[u]; }
  [[nodiscard]] NodeId edge(std::size_t i) const { return edges_[i]; }

  [[nodiscard]] const std::vector<std::uint32_t>& offsets() const {
    return offsets_;
  }
  [[nodiscard]] const std::vector<NodeId>& edge_list() const {
    return edges_;
  }

 private:
  /// Rows in ascending u, each row's targets in ascending v.
  static CsrGraph from_pairs(
      NodeId nodes, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  NodeId nodes_ = 0;
  std::vector<std::uint32_t> offsets_;  // nodes+1 entries.
  std::vector<NodeId> edges_;
};

}  // namespace impact::graph
