// Dimension-order routing (DOR) for 2-D/3-D tori: resolve the X offset first
// (shorter wrap direction), then Y, then Z. Deadlock-free with 2 VCs per
// dimension (dateline scheme); here used for path-length analysis and as an
// ablation baseline against up*/down* on tori.
#pragma once

#include <vector>

#include "dsn/topology/topology.hpp"

namespace dsn {

/// Full DOR path (node sequence) on a torus topology. Requires
/// topo.kind == kTorus2D or kTorus3D.
std::vector<NodeId> route_torus_dor(const Topology& topo, NodeId s, NodeId t);

/// Next hop under DOR (kInvalidNode when s == t).
NodeId torus_dor_next_hop(const Topology& topo, NodeId s, NodeId t);

}  // namespace dsn
