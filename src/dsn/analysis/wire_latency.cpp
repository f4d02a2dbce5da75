#include "dsn/analysis/wire_latency.hpp"

#include <algorithm>

#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"

namespace dsn {

namespace {

/// One source's sums over its shortest-path tree.
struct SourceSums {
  double hops = 0.0, cable = 0.0, latency = 0.0, max_latency = 0.0;
};

}  // namespace

WireLatencyStats estimate_wire_latency(const Topology& topo,
                                       const WireLatencyConfig& config) {
  const NodeId n = topo.num_nodes();
  DSN_REQUIRE(n >= 2, "need at least two switches");
  const FloorLayout layout(topo, MachineRoomConfig{}, default_placement(topo));

  // Each source writes only its own slot; the slots are merged in source
  // order below, so the sums do not depend on thread count or scheduling.
  std::vector<SourceSums> per_source(n);
  parallel_for(0, n, [&](std::size_t src) {
    const NodeId s = static_cast<NodeId>(src);
    const BfsTree tree = bfs_tree(topo.graph, s);

    // Accumulate cable length along each node's tree branch, visiting nodes
    // in increasing distance so every parent is finalized first.
    std::vector<std::vector<NodeId>> by_dist;
    for (NodeId v = 0; v < n; ++v) {
      if (v == s || tree.dist[v] == kUnreachable) continue;
      if (tree.dist[v] >= by_dist.size()) by_dist.resize(tree.dist[v] + 1);
      by_dist[tree.dist[v]].push_back(v);
    }
    std::vector<double> cable_to(n, 0.0);
    SourceSums& sums = per_source[src];
    for (const auto& bucket : by_dist) {
      for (const NodeId v : bucket) {
        const NodeId u = tree.parent[v];
        cable_to[v] = cable_to[u] + layout.cable_length_m(u, v);
        const double lat =
            (tree.dist[v] + 1) * config.router_ns + cable_to[v] * config.cable_ns_per_m;
        sums.hops += tree.dist[v];
        sums.cable += cable_to[v];
        sums.latency += lat;
        sums.max_latency = std::max(sums.max_latency, lat);
      }
    }
  });

  SourceSums total;
  for (const SourceSums& sums : per_source) {
    total.hops += sums.hops;
    total.cable += sums.cable;
    total.latency += sums.latency;
    total.max_latency = std::max(total.max_latency, sums.max_latency);
  }
  const double pairs = static_cast<double>(n) * (n - 1);
  WireLatencyStats stats;
  stats.avg_hops = total.hops / pairs;
  stats.avg_cable_m = total.cable / pairs;
  stats.avg_latency_ns = total.latency / pairs;
  stats.max_latency_ns = total.max_latency;
  const double wire_ns = stats.avg_cable_m * config.cable_ns_per_m;
  stats.wire_fraction = wire_ns / stats.avg_latency_ns;
  return stats;
}

}  // namespace dsn
