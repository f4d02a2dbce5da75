// dsn-slint: deterministic — per-hop routing decisions replay byte-identically
// from a seed; iteration order here is part of the contract.
#include "dsn/routing/sim_routing.hpp"

#include <algorithm>

#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/msbfs.hpp"

namespace dsn {

namespace {

/// The up*/down* root of the pristine tables (degraded rebuilds pick theirs).
constexpr NodeId kPristineRoot = 0;

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

}  // namespace

SimRouting::SimRouting(const Topology& topo, ThreadPool* pool)
    : SimRouting(topo.graph, kPristineRoot, /*allow_disconnected=*/false,
                 pool_or_global(pool)) {}

SimRouting::SimRouting(const Topology& topo, std::span<const std::uint8_t> link_alive,
                       std::span<const std::uint8_t> switch_alive, NodeId updown_root,
                       ThreadPool* pool)
    : SimRouting(live_subgraph(topo.graph, link_alive, switch_alive), updown_root,
                 /*allow_disconnected=*/true, pool_or_global(pool)) {
  DSN_REQUIRE(updown_root < switch_alive.size() && switch_alive[updown_root],
              "up*/down* root must be an alive switch");
}

SimRouting::SimRouting(const Graph& g, NodeId updown_root, bool allow_disconnected,
                       ThreadPool& pool)
    : n_(g.num_nodes()), graph_(g), updown_(graph_, updown_root, pool, allow_disconnected) {
  dist_.assign(static_cast<std::size_t>(n_) * n_, kUnreachable);
  pool.parallel_for(0, n_, [&](std::size_t src) {
    const auto d = csr_bfs_distances(graph_, static_cast<NodeId>(src));
    std::copy(d.begin(), d.end(), dist_.begin() + static_cast<std::ptrdiff_t>(src * n_));
  });
}

}  // namespace dsn
