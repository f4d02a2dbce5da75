#include "dsn/routing/dor.hpp"

#include "dsn/common/math.hpp"

namespace dsn {

std::vector<NodeId> route_torus_dor(const Topology& topo, NodeId s, NodeId t) {
  DSN_REQUIRE(topo.kind == TopologyKind::kTorus2D || topo.kind == TopologyKind::kTorus3D,
              "DOR requires a torus topology");
  DSN_REQUIRE(s < topo.num_nodes() && t < topo.num_nodes(), "node id out of range");
  std::vector<NodeId> path{s};
  for (NodeId u = s; u != t;) {
    u = torus_dor_next_hop(topo, u, t).next;
    path.push_back(u);
  }
  return path;
}

DorStep torus_dor_next_hop(const Topology& topo, NodeId s, NodeId t) {
  // Coordinate d of node v is (v / stride) % dims[d], stride the product of
  // the lower dimensions' sizes.
  NodeId stride = 1;
  for (std::uint32_t d = 0; d < topo.dims.size(); ++d) {
    const std::uint32_t size = topo.dims[d];
    const std::uint32_t from = s / stride % size;
    const std::uint32_t to = t / stride % size;
    if (from != to) {
      const std::uint64_t fwd = ring_cw_distance(from, to, size);
      const std::uint32_t next =
          fwd <= size - fwd ? (from + 1) % size : (from == 0 ? size - 1 : from - 1);
      const bool wrap = (from == size - 1 && next == 0) || (from == 0 && next == size - 1);
      return {s - from * stride + next * stride, d, wrap};
    }
    stride *= size;
  }
  return {};
}

}  // namespace dsn
