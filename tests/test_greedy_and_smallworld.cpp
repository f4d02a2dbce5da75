// Tests for greedy grid routing and the clustering-coefficient metric.
#include <gtest/gtest.h>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/math.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/greedy.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

// --------------------------------------------------------------------------
// clustering coefficient
// --------------------------------------------------------------------------

TEST(Clustering, CompleteGraphIsOne) {
  Graph g(4);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = u + 1; v < 4; ++v) g.add_link(u, v);
  Topology t{"k4", TopologyKind::kRing, std::move(g), {}, {}};
  EXPECT_DOUBLE_EQ(clustering_coefficient(t.graph), 1.0);
}

TEST(Clustering, TreeIsZero) {
  Graph g(7);
  for (NodeId u = 1; u < 7; ++u) g.add_link(u, (u - 1) / 2);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 0.0);
}

TEST(Clustering, TriangleWithTail) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 0);
  g.add_link(2, 3);
  // Nodes 0,1: coefficient 1. Node 2: degree 3, one closed pair of three ->
  // 1/3. Node 3: degree 1, skipped. Average = (1 + 1 + 1/3) / 3.
  EXPECT_NEAR(clustering_coefficient(g), (1.0 + 1.0 + 1.0 / 3.0) / 3.0, 1e-12);
}

TEST(Clustering, RingIsZeroGridIsZero) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(make_ring(16).graph), 0.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(make_torus_2d(5, 5).graph), 0.0);
}

// --------------------------------------------------------------------------
// greedy routing
// --------------------------------------------------------------------------

TEST(Greedy, PlainGridGreedyIsMinimal) {
  const Topology grid = make_kleinberg(8, 0, 2.0, 1);  // no shortcuts
  const CsrView csr(grid.graph);
  for (NodeId s = 0; s < grid.num_nodes(); s += 5) {
    const auto bfs = bfs_distances(grid.graph, s);
    for (NodeId t = 0; t < grid.num_nodes(); ++t) {
      const auto path = route_greedy_grid(csr, 8, s, t);
      EXPECT_EQ(path.size() - 1, bfs[t]) << s << "->" << t;
    }
  }
}

TEST(Greedy, AllPairsReachDestination) {
  const Topology kb = make_kleinberg(10, 1, 2.0, 7);
  const CsrView csr(kb.graph);
  for (NodeId s = 0; s < kb.num_nodes(); s += 3) {
    for (NodeId t = 0; t < kb.num_nodes(); ++t) {
      const auto path = route_greedy_grid(csr, 10, s, t);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(kb.graph.has_link(path[i], path[i + 1]));
      }
    }
  }
}

TEST(Greedy, ShortcutsHelpOnAverage) {
  const Topology grid = make_kleinberg(16, 0, 2.0, 1);
  const Topology kb = make_kleinberg(16, 1, 2.0, 1);
  const auto plain = analyze::analyze_topology_routes(grid, analyze::RoutingFamily::kGreedyGrid);
  const auto with_shortcuts =
      analyze::analyze_topology_routes(kb, analyze::RoutingFamily::kGreedyGrid);
  EXPECT_LT(with_shortcuts.avg_hops, plain.avg_hops);
}

TEST(Greedy, RejectsNonGrid) {
  const Topology ring = make_ring(16);
  EXPECT_THROW(analyze::make_route_function(ring, analyze::RoutingFamily::kGreedyGrid),
               PreconditionError);
}

TEST(Greedy, DsnCustomRoutingHasLowerStretchThanKleinbergGreedy) {
  // The paper's motivation (§II): greedy on Kleinberg's grid is far from
  // optimal, while DSN's custom routing stays within a small factor.
  const std::uint32_t n = 256;
  const Topology kb = make_kleinberg(16, 1, 2.0, 3);
  const auto greedy = analyze::analyze_topology_routes(kb, analyze::RoutingFamily::kGreedyGrid);
  const auto kb_opt = compute_path_stats(kb.graph);
  const double greedy_stretch = greedy.avg_hops / kb_opt.avg_shortest_path;

  const Dsn d(n, dsn_default_x(n));
  const auto custom = analyze::analyze_dsn_routes(d, analyze::ChannelScheme::kBasic);
  const auto dsn_opt = compute_path_stats(d.topology().graph);
  const double custom_stretch = custom.avg_hops / dsn_opt.avg_shortest_path;

  EXPECT_GT(greedy_stretch, 1.0);
  EXPECT_LT(custom_stretch, 2.5);
}

}  // namespace
}  // namespace dsn
