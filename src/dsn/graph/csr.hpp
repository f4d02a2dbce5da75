// Immutable compressed-sparse-row snapshot of a Graph.
//
// The adjacency-list Graph is ideal for incremental construction but poor for
// traversal-heavy kernels: every neighbors(u) hop chases a separate heap
// allocation. CsrView packs the whole adjacency into one contiguous
// allocation — an offset array followed by parallel neighbor/link arrays in
// the Graph's insertion order — so BFS sweeps, gain updates and intersection
// kernels walk sequential memory. The snapshot does not observe later
// mutations of the source Graph; rebuild after editing.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dsn/common/error.hpp"
#include "dsn/common/types.hpp"
#include "dsn/graph/graph.hpp"

namespace dsn {

class CsrView {
 public:
  CsrView() = default;
  explicit CsrView(const Graph& g);

  /// Build directly from an undirected edge list: link ids are the list
  /// indices, and each node's neighbors appear in ascending link id — exactly
  /// the adjacency a Graph built by add_link() in list order would produce.
  /// Used by the shortcut-set optimizer to snapshot mutated placements
  /// without paying Graph's per-node adjacency allocations.
  CsrView(NodeId num_nodes, std::span<const std::pair<NodeId, NodeId>> links);

  NodeId num_nodes() const { return num_nodes_; }
  /// Directed arc count: two per undirected link.
  std::size_t num_arcs() const { return num_arcs_; }

  /// Neighbor node ids of u, in the source Graph's insertion order.
  std::span<const NodeId> neighbors(NodeId u) const {
    DSN_REQUIRE(u < num_nodes_, "node id out of range");
    return {buf_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Link ids parallel to neighbors(u): links(u)[k] carries u—neighbors(u)[k].
  std::span<const LinkId> links(NodeId u) const {
    DSN_REQUIRE(u < num_nodes_, "node id out of range");
    return {buf_.data() + num_arcs_ + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::size_t degree(NodeId u) const {
    DSN_REQUIRE(u < num_nodes_, "node id out of range");
    return offsets_[u + 1] - offsets_[u];
  }

  /// Arc id of u's first neighbor: neighbors(u)[k] is arc first_arc(u) + k,
  /// and arc ids run over [0, num_arcs()).
  std::size_t first_arc(NodeId u) const {
    DSN_REQUIRE(u < num_nodes_, "node id out of range");
    return offsets_[u];
  }

  /// Sorted, parallel-link-deduplicated neighbor set of u. Only available
  /// after build_sorted_neighbors() (intersection kernels opt in; plain BFS
  /// consumers skip the sort cost).
  std::span<const NodeId> sorted_neighbors(NodeId u) const {
    DSN_REQUIRE(u < num_nodes_, "node id out of range");
    DSN_REQUIRE(!sorted_offsets_.empty(), "build_sorted_neighbors() not called");
    return {sorted_.data() + sorted_offsets_[u], sorted_offsets_[u + 1] - sorted_offsets_[u]};
  }

  /// Build the sorted/deduplicated neighbor sets (idempotent).
  void build_sorted_neighbors();

 private:
  NodeId num_nodes_ = 0;
  std::size_t num_arcs_ = 0;
  // One allocation: neighbor array [0, num_arcs_) then link array
  // [num_arcs_, 2 * num_arcs_), both indexed through offsets_.
  std::vector<std::uint32_t> buf_;
  std::vector<std::size_t> offsets_;  // size num_nodes_ + 1
  std::vector<std::size_t> sorted_offsets_;
  std::vector<NodeId> sorted_;
};

}  // namespace dsn
