// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/graph/msbfs.hpp"

namespace dsn {

std::vector<std::uint32_t> csr_bfs_distances(const CsrView& g, NodeId src) {
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(src < n, "source out of range");
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<NodeId> frontier{src};
  std::vector<NodeId> next_frontier;
  dist[src] = 0;
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next_frontier.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = level;
          next_frontier.push_back(v);
        }
      }
    }
    frontier.swap(next_frontier);
  }
  return dist;
}

}  // namespace dsn
