// Undirected multigraph used to represent switch-to-switch topologies.
//
// Nodes are dense ids [0, n). Edges (links) are undirected, identified by a
// dense LinkId, and parallel edges are allowed (the DSN-E extension adds Up
// links physically parallel to ring links). Adjacency is stored per node as
// (neighbor, link) halves in insertion order, so generators produce
// deterministic port orderings — the simulator relies on this to map
// adjacency positions to switch ports.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dsn/common/error.hpp"
#include "dsn/common/types.hpp"

namespace dsn {

/// One directed half of an undirected link, as seen from a node's adjacency.
struct AdjHalf {
  NodeId to;
  LinkId link;
  friend bool operator==(const AdjHalf&, const AdjHalf&) = default;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId num_nodes) : adj_(num_nodes) {}

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  std::size_t num_links() const { return links_.size(); }

  /// Add an undirected link u—v. Self loops are rejected; parallel edges are
  /// allowed. Returns the new link id.
  LinkId add_link(NodeId u, NodeId v) {
    DSN_REQUIRE(u < num_nodes() && v < num_nodes(), "node id out of range");
    DSN_REQUIRE(u != v, "self loops are not allowed");
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.emplace_back(u, v);
    adj_[u].push_back({v, id});
    adj_[v].push_back({u, id});
    return id;
  }

  /// First link id between u and v, or kInvalidLink.
  LinkId find_link(NodeId u, NodeId v) const {
    DSN_REQUIRE(u < num_nodes() && v < num_nodes(), "node id out of range");
    // Scan the smaller adjacency.
    const NodeId base = adj_[u].size() <= adj_[v].size() ? u : v;
    const NodeId other = base == u ? v : u;
    for (const AdjHalf& h : adj_[base])
      if (h.to == other) return h.link;
    return kInvalidLink;
  }

  bool has_link(NodeId u, NodeId v) const { return find_link(u, v) != kInvalidLink; }

  std::span<const AdjHalf> neighbors(NodeId u) const {
    DSN_REQUIRE(u < num_nodes(), "node id out of range");
    return adj_[u];
  }

  std::size_t degree(NodeId u) const {
    DSN_REQUIRE(u < num_nodes(), "node id out of range");
    return adj_[u].size();
  }

  /// Endpoints (u, v) of a link with u,v in insertion order.
  std::pair<NodeId, NodeId> link_endpoints(LinkId id) const {
    DSN_REQUIRE(id < links_.size(), "link id out of range");
    return links_[id];
  }

  double average_degree() const {
    if (num_nodes() == 0) return 0.0;
    return 2.0 * static_cast<double>(num_links()) / static_cast<double>(num_nodes());
  }

 private:
  std::vector<std::vector<AdjHalf>> adj_;
  std::vector<std::pair<NodeId, NodeId>> links_;
};

/// The graph without its dead links and switches: every link l with
/// link_alive[l] set and both endpoints alive in node_alive, kept in link-id
/// order. Node ids are preserved; a dead switch stays as an isolated node.
inline Graph live_subgraph(const Graph& g, std::span<const std::uint8_t> link_alive,
                           std::span<const std::uint8_t> node_alive) {
  DSN_REQUIRE(link_alive.size() == g.num_links(), "link mask size mismatch");
  DSN_REQUIRE(node_alive.size() == g.num_nodes(), "node mask size mismatch");
  Graph out(g.num_nodes());
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    if (link_alive[l] && node_alive[u] && node_alive[v]) out.add_link(u, v);
  }
  return out;
}

}  // namespace dsn
