// Routing tables for the cycle-accurate simulator: the topology-agnostic
// adaptive scheme of Silla & Duato [24] as described in §VII-A — fully
// adaptive minimal hops on the adaptive virtual channels, with up*/down*
// shortest legal paths as the escape layer. Deadlock freedom follows from
// Duato's theory for virtual cut-through: the escape subnetwork (up*/down*)
// has an acyclic channel dependency graph and is connected.
//
// It keeps the routed graph, the n^2 distance table and the up*/down* tables;
// minimal next hops are read off the distance table per lookup, not stored.
//
// The masked constructor supports live fault recovery: it builds the same
// tables over the alive subgraph only (dead links and halted switches
// removed), allowing disconnected intermediate states — unreachable pairs
// simply have no next hops until the topology heals.
#pragma once

#include <span>
#include <vector>

#include "dsn/graph/csr.hpp"
#include "dsn/routing/updown.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

class ThreadPool;

class SimRouting {
 public:
  /// Builds APSP distances and up*/down* tables rooted at switch 0. `pool`
  /// overrides the global thread pool for both table sweeps (the
  /// deterministic-replay tests rebuild with explicit 1/4/8-worker pools; the
  /// tables are identical for any worker count).
  explicit SimRouting(const Topology& topo, ThreadPool* pool = nullptr);

  /// Degraded rebuild over the alive subgraph (link_alive indexed by LinkId,
  /// switch_alive by NodeId; a link is kept only when it and both endpoints
  /// are alive). `updown_root` must be an alive switch.
  SimRouting(const Topology& topo, std::span<const std::uint8_t> link_alive,
             std::span<const std::uint8_t> switch_alive, NodeId updown_root,
             ThreadPool* pool = nullptr);

  const UpDownRouting& updown() const { return updown_; }

  /// Hop distance between switches (kUnreachable across dead regions).
  std::uint32_t distance(NodeId u, NodeId t) const {
    return dist_[static_cast<std::size_t>(u) * n_ + t];
  }

  /// Calls f(v) for each minimal adaptive next hop v from u toward t: every
  /// neighbour of u in the routed graph one hop closer to t, in adjacency
  /// order, once per parallel link. Nothing when u == t or t is unreachable.
  template <class F>
  void for_each_minimal_next_hop(NodeId u, NodeId t, F&& f) const {
    DSN_REQUIRE(u < n_ && t < n_, "node id out of range");
    const std::uint32_t du = distance(u, t);
    if (du == 0 || du == kUnreachable) return;
    for (const NodeId v : graph_.neighbors(u)) {
      if (distance(v, t) + 1 == du) f(v);
    }
  }

  /// Escape next hop (up*/down*). `down_only` reflects whether the packet's
  /// previous consecutive escape hop was a down hop.
  NodeId escape_next_hop(NodeId u, NodeId t, bool down_only) const {
    return updown_.next_hop(u, t, down_only);
  }

  /// Whether hop u -> v is a down hop in the up*/down* orientation.
  bool escape_hop_is_down(NodeId u, NodeId v) const { return !updown_.is_up(u, v); }

 private:
  /// Both builds' body: every table over `g` (topo.graph or its alive
  /// subgraph, snapshotted into graph_), swept on `pool`.
  SimRouting(const Graph& g, NodeId updown_root, bool allow_disconnected, ThreadPool& pool);

  NodeId n_;
  CsrView graph_;
  UpDownRouting updown_;
  std::vector<std::uint32_t> dist_;  // n * n
};

}  // namespace dsn
