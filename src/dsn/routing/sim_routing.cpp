// dsn-slint: deterministic — per-hop routing decisions replay byte-identically
// from a seed; iteration order here is part of the contract.
#include "dsn/routing/sim_routing.hpp"

#include <algorithm>

#include "dsn/common/thread_pool.hpp"

namespace dsn {

namespace {

/// The up*/down* root of the pristine tables (degraded rebuilds pick theirs).
constexpr NodeId kPristineRoot = 0;

}  // namespace

SimRouting::SimRouting(const Topology& topo, ThreadPool* pool)
    : SimRouting(topo, topo.graph, kPristineRoot, /*allow_disconnected=*/false, pool) {}

SimRouting::SimRouting(const Topology& topo, std::span<const std::uint8_t> link_alive,
                       std::span<const std::uint8_t> switch_alive, NodeId updown_root,
                       ThreadPool* pool)
    : SimRouting(topo, live_subgraph(topo.graph, link_alive, switch_alive), updown_root,
                 /*allow_disconnected=*/true, pool) {
  DSN_REQUIRE(updown_root < switch_alive.size() && switch_alive[updown_root],
              "up*/down* root must be an alive switch");
}

SimRouting::SimRouting(const Topology& topo, const Graph& g, NodeId updown_root,
                       bool allow_disconnected, ThreadPool* pool)
    : topo_(&topo),
      n_(topo.num_nodes()),
      updown_(g, updown_root, allow_disconnected) {
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  const std::size_t nn = static_cast<std::size_t>(n_) * n_;
  dist_.assign(nn, kUnreachable);

  tp.parallel_for(0, n_, [&](std::size_t src) {
    const auto d = bfs_distances(g, static_cast<NodeId>(src));
    std::copy(d.begin(), d.end(), dist_.begin() + static_cast<std::ptrdiff_t>(src * n_));
  });

  // Minimal next hops per (u, t): neighbors of u one hop closer to t,
  // collected per source then flattened with a prefix sum. Unreachable
  // destinations (degraded builds) naturally collect zero next hops.
  std::vector<std::vector<NodeId>> per_u(n_);
  std::vector<std::uint32_t> counts(nn, 0);
  tp.parallel_for(0, n_, [&](std::size_t u) {
    auto& flat = per_u[u];
    for (NodeId t = 0; t < n_; ++t) {
      if (t == static_cast<NodeId>(u)) continue;
      const std::uint32_t du = dist_[u * n_ + t];
      if (du == kUnreachable) continue;
      std::uint32_t added = 0;
      for (const AdjHalf& h : g.neighbors(static_cast<NodeId>(u))) {
        if (dist_[static_cast<std::size_t>(h.to) * n_ + t] + 1 == du) {
          flat.push_back(h.to);
          ++added;
        }
      }
      counts[u * n_ + t] = added;
    }
  });

  minimal_off_.assign(nn + 1, 0);
  for (std::size_t i = 0; i < nn; ++i) minimal_off_[i + 1] = minimal_off_[i] + counts[i];
  minimal_flat_.clear();
  minimal_flat_.reserve(minimal_off_[nn]);
  for (NodeId u = 0; u < n_; ++u) {
    minimal_flat_.insert(minimal_flat_.end(), per_u[u].begin(), per_u[u].end());
  }
  DSN_ASSERT(minimal_flat_.size() == minimal_off_[nn], "offset bookkeeping mismatch");
}

std::span<const NodeId> SimRouting::minimal_next_hops(NodeId u, NodeId t) const {
  DSN_REQUIRE(u < n_ && t < n_, "node id out of range");
  const std::size_t idx = static_cast<std::size_t>(u) * n_ + t;
  const std::uint32_t lo = minimal_off_[idx];
  const std::uint32_t hi = minimal_off_[idx + 1];
  return {minimal_flat_.data() + lo, hi - lo};
}

}  // namespace dsn
