// Dimension-order routing (DOR) for 2-D/3-D tori: resolve the X offset first
// (shorter wrap direction), then Y, then Z. Deadlock-free with 2 VCs per
// dimension (dateline scheme); here used for path-length analysis and as an
// ablation baseline against up*/down* on tori.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/topology/topology.hpp"

namespace dsn {

/// One DOR hop: the next node, the dimension the hop moves in, and whether it
/// takes that dimension's wraparound link (coordinate size-1 <-> 0).
struct DorStep {
  NodeId next = kInvalidNode;  ///< kInvalidNode when s == t
  std::uint32_t dim = 0;
  bool wrap = false;
};

/// Full DOR path (node sequence) on a torus topology. Requires
/// topo.kind == kTorus2D or kTorus3D.
std::vector<NodeId> route_torus_dor(const Topology& topo, NodeId s, NodeId t);

/// The one DOR step, which route_torus_dor loops over: one hop in the lowest
/// dimension where s and t differ, along the shorter wrap direction (ties go
/// clockwise, +1).
DorStep torus_dor_next_hop(const Topology& topo, NodeId s, NodeId t);

}  // namespace dsn
