// dsn-slint: deterministic — route tables feed byte-identical replay and
// shard-order merges; iteration order here is part of the contract.
#include "dsn/routing/updown.hpp"

#include <deque>

#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/graph/msbfs.hpp"

namespace dsn {

UpDownRouting::UpDownRouting(const Graph& g, NodeId root, bool allow_disconnected)
    : graph_(&g), csr_(g), root_(root) {
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(root < n, "root out of range");
  DSN_REQUIRE(allow_disconnected || is_connected(csr_),
              "up*/down* requires a connected graph");

  tree_level_ = csr_bfs_distances(csr_, root);

  const std::size_t nn = static_cast<std::size_t>(n) * n;
  for (int ph = 0; ph < 2; ++ph) {
    dist_[ph].assign(nn, kUnreachable);
    next_[ph].assign(nn, kInvalidNode);
  }

  // For every destination t, a backward BFS over the (node, phase) state
  // graph yields the shortest legal distance and the next hop per phase.
  parallel_for(0, n, [&](std::size_t ti) {
    const NodeId t = static_cast<NodeId>(ti);
    const std::size_t base = ti * n;
    auto& d0 = dist_[0];
    auto& d1 = dist_[1];
    auto& n0 = next_[0];
    auto& n1 = next_[1];

    // State encoding: node * 2 + phase.
    std::deque<std::uint32_t> queue;
    d0[base + t] = 0;
    d1[base + t] = 0;
    queue.push_back(t * 2 + 0);
    queue.push_back(t * 2 + 1);

    while (!queue.empty()) {
      const std::uint32_t state = queue.front();
      queue.pop_front();
      const NodeId v = state / 2;
      const int ph = static_cast<int>(state % 2);
      const std::uint32_t dist_v = (ph == 0 ? d0 : d1)[base + v];

      for (const NodeId u : csr_.neighbors(v)) {
        if (ph == 0) {
          // Only an up hop u->v keeps the walker in phase 0.
          if (is_up(u, v) && d0[base + u] == kUnreachable) {
            d0[base + u] = dist_v + 1;
            n0[base + u] = v;
            queue.push_back(u * 2 + 0);
          }
        } else {
          // A down hop u->v can be taken from either phase; it is the first
          // down hop when coming from phase 0.
          if (!is_up(u, v)) {
            if (d1[base + u] == kUnreachable) {
              d1[base + u] = dist_v + 1;
              n1[base + u] = v;
              queue.push_back(u * 2 + 1);
            }
            if (d0[base + u] == kUnreachable) {
              d0[base + u] = dist_v + 1;
              n0[base + u] = v;
              queue.push_back(u * 2 + 0);
            }
          }
        }
      }
    }
  });
}

bool UpDownRouting::is_up(NodeId u, NodeId v) const {
  return tree_level_[v] < tree_level_[u] ||
         (tree_level_[v] == tree_level_[u] && v < u);
}

std::uint32_t UpDownRouting::legal_distance(NodeId u, NodeId t) const {
  const NodeId n = graph_->num_nodes();
  DSN_REQUIRE(u < n && t < n, "node id out of range");
  return dist_[0][static_cast<std::size_t>(t) * n + u];
}

NodeId UpDownRouting::next_hop(NodeId u, NodeId t, bool down_only) const {
  const NodeId n = graph_->num_nodes();
  DSN_REQUIRE(u < n && t < n, "node id out of range");
  if (u == t) return kInvalidNode;
  return next_[down_only ? 1 : 0][static_cast<std::size_t>(t) * n + u];
}

std::vector<NodeId> UpDownRouting::route(NodeId s, NodeId t) const {
  std::vector<NodeId> path{s};
  NodeId u = s;
  bool down_only = false;
  while (u != t) {
    const NodeId v = next_hop(u, t, down_only);
    DSN_ASSERT(v != kInvalidNode, "legal up*/down* continuation must exist");
    if (!is_up(u, v)) down_only = true;
    path.push_back(v);
    u = v;
    DSN_ASSERT(path.size() <= graph_->num_nodes() + 1, "up*/down* route too long");
  }
  return path;
}

}  // namespace dsn
