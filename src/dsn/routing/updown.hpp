// Up*/down* routing [Schroeder et al., Autonet] — the topology-agnostic
// deadlock-free routing the paper assumes for random topologies and uses as
// the escape layer of the adaptive scheme in the simulator (§VII-A, [24]).
//
// A BFS spanning tree from a root orients every link: the end closer to the
// root (ties broken by lower node id) is the "up" end. A legal path traverses
// zero or more up links followed by zero or more down links; this forbids the
// down->up transition, which makes the channel dependency graph acyclic.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/graph/csr.hpp"

namespace dsn {

class ThreadPool;

class UpDownRouting {
 public:
  /// Builds tree levels and both next-hop tables (O(n * E) preprocessing),
  /// sweeping destinations on `pool` (any worker count gives the same
  /// tables). The tables are all the object keeps: 2 n^2 node ids, 128 MiB at
  /// n = 4096. Each destination's backward BFS runs on scratch its shard
  /// reuses (a queue and two n-entry distance rows), and `csr` is not kept.
  /// With `allow_disconnected` the graph may have several components (the
  /// degraded rebuilds of the fault-recovery path): nodes unreachable from
  /// the root keep kUnreachable tree levels — the (level, id) orientation
  /// stays a total order, so legality is still acyclic — and pairs in
  /// different components simply have no legal paths (next_hop returns
  /// kInvalidNode for them).
  UpDownRouting(const CsrView& csr, NodeId root, ThreadPool& pool,
                bool allow_disconnected = false);

  NodeId root() const { return root_; }

  /// True iff traversing u -> v is an "up" hop (toward the root).
  bool is_up(NodeId u, NodeId v) const;

  /// Next hop on a shortest legal path from u to t. `down_only` selects the
  /// table for packets whose previous hop (on the escape layer) was a down
  /// hop; such a continuation exists whenever the tables were followed
  /// consistently. Returns kInvalidNode when u == t.
  NodeId next_hop(NodeId u, NodeId t, bool down_only = false) const;

  /// Full shortest legal path from s to t (node sequence including both ends).
  std::vector<NodeId> route(NodeId s, NodeId t) const;

 private:
  NodeId root_;
  std::vector<std::uint32_t> tree_level_;  // BFS hops from the root, per node
  // next_[phase][t * n + u] = next hop on a shortest legal path from u to t
  // given phase (0: up still allowed, 1: down only); kInvalidNode if none.
  std::vector<NodeId> next_[2];
};

}  // namespace dsn
