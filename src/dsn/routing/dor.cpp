#include "dsn/routing/dor.hpp"

#include "dsn/common/math.hpp"

namespace dsn {

namespace {

struct Coords {
  std::vector<std::uint32_t> c;
};

Coords coords_of(const Topology& topo, NodeId v) {
  Coords out;
  NodeId rest = v;
  for (const std::uint32_t dim : topo.dims) {
    out.c.push_back(rest % dim);
    rest /= dim;
  }
  return out;
}

NodeId id_of(const Topology& topo, const Coords& coords) {
  NodeId id = 0;
  for (std::size_t k = topo.dims.size(); k-- > 0;) {
    id = id * topo.dims[k] + coords.c[k];
  }
  return id;
}

/// Step coordinate `dim` one hop toward the target along the shorter wrap
/// direction; ties go clockwise (+1).
std::uint32_t step_toward(std::uint32_t from, std::uint32_t to, std::uint32_t size) {
  const std::uint64_t fwd = ring_cw_distance(from, to, size);
  const std::uint64_t bwd = size - fwd;
  if (fwd <= bwd) return (from + 1) % size;
  return from == 0 ? size - 1 : from - 1;
}

}  // namespace

std::vector<NodeId> route_torus_dor(const Topology& topo, NodeId s, NodeId t) {
  DSN_REQUIRE(topo.kind == TopologyKind::kTorus2D || topo.kind == TopologyKind::kTorus3D,
              "DOR requires a torus topology");
  DSN_REQUIRE(s < topo.num_nodes() && t < topo.num_nodes(), "node id out of range");
  std::vector<NodeId> path{s};
  Coords cur = coords_of(topo, s);
  const Coords dst = coords_of(topo, t);
  for (std::size_t dim = 0; dim < topo.dims.size(); ++dim) {
    while (cur.c[dim] != dst.c[dim]) {
      cur.c[dim] = step_toward(cur.c[dim], dst.c[dim], topo.dims[dim]);
      path.push_back(id_of(topo, cur));
    }
  }
  return path;
}

NodeId torus_dor_next_hop(const Topology& topo, NodeId s, NodeId t) {
  if (s == t) return kInvalidNode;
  Coords cur = coords_of(topo, s);
  const Coords dst = coords_of(topo, t);
  for (std::size_t dim = 0; dim < topo.dims.size(); ++dim) {
    if (cur.c[dim] != dst.c[dim]) {
      cur.c[dim] = step_toward(cur.c[dim], dst.c[dim], topo.dims[dim]);
      return id_of(topo, cur);
    }
  }
  return kInvalidNode;
}

}  // namespace dsn
