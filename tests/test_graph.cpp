// Unit tests for the graph substrate: multigraph storage, BFS, all-pairs
// statistics, degree statistics, connectivity.
#include <gtest/gtest.h>

#include "dsn/graph/graph.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

Graph path_graph(NodeId n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_link(i, i + 1);
  return g;
}

TEST(Graph, AddAndQueryLinks) {
  Graph g(4);
  const LinkId l0 = g.add_link(0, 1);
  const LinkId l1 = g.add_link(1, 2);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_TRUE(g.has_link(0, 1));
  EXPECT_TRUE(g.has_link(1, 0));
  EXPECT_FALSE(g.has_link(0, 2));
  EXPECT_EQ(g.find_link(1, 2), l1);
  EXPECT_EQ(g.find_link(0, 3), kInvalidLink);
  EXPECT_EQ(g.link_endpoints(l0), (std::pair<NodeId, NodeId>{0, 1}));
}

TEST(Graph, RejectsSelfLoops) {
  Graph g(3);
  EXPECT_THROW(g.add_link(1, 1), PreconditionError);
}

TEST(Graph, RejectsOutOfRange) {
  Graph g(3);
  EXPECT_THROW(g.add_link(0, 3), PreconditionError);
  EXPECT_THROW(g.degree(3), PreconditionError);
  EXPECT_THROW(g.neighbors(5), PreconditionError);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_link(0, 1);
  g.add_link(0, 1);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, AverageDegree) {
  Graph g = path_graph(4);  // 3 links, 4 nodes
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Graph, AdjacencyPreservesInsertionOrder) {
  Graph g(4);
  g.add_link(0, 2);
  g.add_link(0, 1);
  g.add_link(0, 3);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].to, 2u);
  EXPECT_EQ(nbrs[1].to, 1u);
  EXPECT_EQ(nbrs[2].to, 3u);
}

TEST(Metrics, BfsOnPath) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Metrics, BfsUnreachable) {
  Graph g(4);
  g.add_link(0, 1);
  // nodes 2, 3 disconnected
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Metrics, BfsTreeParents) {
  const Graph g = path_graph(4);
  const auto t = bfs_tree(g, 0);
  EXPECT_EQ(t.parent[0], kInvalidNode);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], 1u);
  EXPECT_EQ(t.parent[3], 2u);
}

TEST(Metrics, PathStatsOnRing) {
  const Topology ring = make_ring(8);
  const auto s = compute_path_stats(ring.graph);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 4u);
  // Ring of 8: distances from any node are 1,1,2,2,3,3,4 -> avg 16/7.
  EXPECT_NEAR(s.avg_shortest_path, 16.0 / 7.0, 1e-9);
}

TEST(Metrics, PathStatsHistogramSumsToPairs) {
  const Topology ring = make_ring(10);
  const auto s = compute_path_stats(ring.graph);
  std::uint64_t total = 0;
  for (const auto c : s.hop_histogram) total += c;
  EXPECT_EQ(total, 90u);  // 10 * 9 ordered pairs
  EXPECT_EQ(s.hop_histogram[0], 0u);
}

TEST(Metrics, PathStatsDisconnected) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(2, 3);
  const auto s = compute_path_stats(g);
  EXPECT_FALSE(s.connected);
}

TEST(Metrics, EccentricitiesOnPath) {
  const Graph g = path_graph(5);
  const auto ecc = eccentricities(g);
  EXPECT_EQ(ecc[0], 4u);
  EXPECT_EQ(ecc[2], 2u);
  EXPECT_EQ(ecc[4], 4u);
}

TEST(Metrics, DiameterEqualsMaxEccentricity) {
  const Topology t = make_torus_2d(4, 5);
  const auto s = compute_path_stats(t.graph);
  const auto ecc = eccentricities(t.graph);
  std::uint32_t max_ecc = 0;
  for (const auto e : ecc) max_ecc = std::max(max_ecc, e);
  EXPECT_EQ(s.diameter, max_ecc);
}

TEST(Metrics, DegreeStats) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(0, 3);
  const auto s = compute_degree_stats(g);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.5);
  ASSERT_EQ(s.histogram.size(), 4u);
  EXPECT_EQ(s.histogram[1], 3u);
  EXPECT_EQ(s.histogram[3], 1u);
}

TEST(Metrics, Connectivity) {
  EXPECT_TRUE(is_connected(path_graph(6)));
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

// Property: BFS distance satisfies the triangle inequality via any edge.
TEST(Metrics, BfsTriangleInequalityProperty) {
  const Topology t = make_torus_2d(5, 5);
  for (NodeId src : {0u, 7u, 24u}) {
    const auto d = bfs_distances(t.graph, src);
    for (NodeId u = 0; u < t.num_nodes(); ++u) {
      for (const AdjHalf& h : t.graph.neighbors(u)) {
        EXPECT_LE(d[h.to], d[u] + 1);
        EXPECT_LE(d[u], d[h.to] + 1);
      }
    }
  }
}

}  // namespace
}  // namespace dsn
