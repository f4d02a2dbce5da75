#include "dsn/routing/greedy.hpp"

#include <cstdlib>

namespace dsn {

namespace {

std::int64_t lattice_distance(NodeId a, NodeId b, std::uint32_t side) {
  const std::int64_t ax = a % side, ay = a / side;
  const std::int64_t bx = b % side, by = b / side;
  return std::abs(ax - bx) + std::abs(ay - by);
}

}  // namespace

std::vector<NodeId> route_greedy_grid(const CsrView& csr, std::uint32_t side, NodeId s,
                                      NodeId t) {
  DSN_REQUIRE(s < csr.num_nodes() && t < csr.num_nodes(), "node id out of range");

  std::vector<NodeId> path{s};
  NodeId u = s;
  const std::size_t cap = 4ull * side + 16;
  while (u != t) {
    NodeId best = kInvalidNode;
    std::int64_t best_dist = lattice_distance(u, t, side);
    for (const NodeId v : csr.neighbors(u)) {
      const std::int64_t d = lattice_distance(v, t, side);
      if (d < best_dist || (d == best_dist && best != kInvalidNode && v < best)) {
        // Strictly-closer neighbors only: the grid links guarantee one
        // always exists, which is what makes greedy routing well defined.
        if (d < lattice_distance(u, t, side)) {
          best = v;
          best_dist = d;
        }
      }
    }
    DSN_ASSERT(best != kInvalidNode, "grid must provide a closer neighbor");
    path.push_back(best);
    u = best;
    DSN_ASSERT(path.size() <= cap, "greedy walk exceeded the progress bound");
  }
  return path;
}

}  // namespace dsn
