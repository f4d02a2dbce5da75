// dsn-slint: deterministic — route tables feed byte-identical replay and
// shard-order merges; iteration order here is part of the contract.
#include "dsn/routing/updown.hpp"

#include <algorithm>

#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/msbfs.hpp"

namespace dsn {

UpDownRouting::UpDownRouting(const CsrView& csr, NodeId root, ThreadPool& pool,
                             bool allow_disconnected)
    : root_(root) {
  const NodeId n = csr.num_nodes();
  DSN_REQUIRE(root < n, "root out of range");
  tree_level_ = csr_bfs_distances(csr, root);  // also the connectivity check
  DSN_REQUIRE(allow_disconnected || std::ranges::count(tree_level_, kUnreachable) == 0,
              "up*/down* requires a connected graph");

  const std::size_t nn = static_cast<std::size_t>(n) * n;
  next_[0].assign(nn, kInvalidNode);
  next_[1].assign(nn, kInvalidNode);

  // For every destination t, a backward BFS over the (node, phase) state
  // graph yields the shortest legal distance and the next hop per phase.
  // Shards are contiguous destination ranges; each owns its queue and its
  // two distance rows (d0: up still allowed, d1: down only) and writes only
  // its destinations' table rows.
  const std::size_t shards = pool.shard_count(n);
  pool.parallel_for(0, shards, [&](std::size_t k) {
    // State encoding: node * 2 + phase. Each state is queued at most once.
    std::vector<std::uint32_t> queue(2 * static_cast<std::size_t>(n));
    std::vector<std::uint32_t> d0(n), d1(n);
    const std::size_t begin = k * n / shards;
    const std::size_t end = (k + 1) * n / shards;
    for (std::size_t ti = begin; ti < end; ++ti) {
      const NodeId t = static_cast<NodeId>(ti);
      NodeId* const n0 = next_[0].data() + ti * n;
      NodeId* const n1 = next_[1].data() + ti * n;
      std::fill(d0.begin(), d0.end(), kUnreachable);
      std::fill(d1.begin(), d1.end(), kUnreachable);

      std::size_t head = 0, tail = 0;
      d0[t] = 0;
      d1[t] = 0;
      queue[tail++] = t * 2 + 0;
      queue[tail++] = t * 2 + 1;

      while (head < tail) {
        const std::uint32_t state = queue[head++];
        const NodeId v = state / 2;
        const int ph = static_cast<int>(state % 2);
        const std::uint32_t dist_v = (ph == 0 ? d0 : d1)[v];

        for (const NodeId u : csr.neighbors(v)) {
          if (ph == 0) {
            // Only an up hop u->v keeps the walker in phase 0.
            if (is_up(u, v) && d0[u] == kUnreachable) {
              d0[u] = dist_v + 1;
              n0[u] = v;
              queue[tail++] = u * 2 + 0;
            }
          } else {
            // A down hop u->v can be taken from either phase; it is the first
            // down hop when coming from phase 0.
            if (!is_up(u, v)) {
              if (d1[u] == kUnreachable) {
                d1[u] = dist_v + 1;
                n1[u] = v;
                queue[tail++] = u * 2 + 1;
              }
              if (d0[u] == kUnreachable) {
                d0[u] = dist_v + 1;
                n0[u] = v;
                queue[tail++] = u * 2 + 0;
              }
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

NodeId UpDownRouting::next_hop(NodeId u, NodeId t, bool down_only) const {
  const auto n = static_cast<NodeId>(tree_level_.size());
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
    DSN_ASSERT(path.size() <= tree_level_.size() + 1, "up*/down* route too long");
  }
  return path;
}

}  // namespace dsn
