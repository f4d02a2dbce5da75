// Tests for dimension-order routing on tori: minimality, dimension ordering,
// wrap-direction choice, and next-hop consistency with the full path.
#include <gtest/gtest.h>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/dor.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

TEST(Dor, PathsAreMinimalOn2dTorus) {
  const Topology t = make_torus_2d(6, 6);
  for (NodeId s = 0; s < t.num_nodes(); ++s) {
    const auto bfs = bfs_distances(t.graph, s);
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      const auto path = route_torus_dor(t, s, dst);
      EXPECT_EQ(path.size() - 1, bfs[dst]) << s << "->" << dst;
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), dst);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(t.graph.has_link(path[i], path[i + 1]));
      }
    }
  }
}

TEST(Dor, PathsAreMinimalOn3dTorus) {
  const Topology t = make_torus_3d(3, 4, 2);
  for (NodeId s = 0; s < t.num_nodes(); s += 3) {
    const auto bfs = bfs_distances(t.graph, s);
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      const auto path = route_torus_dor(t, s, dst);
      EXPECT_EQ(path.size() - 1, bfs[dst]) << s << "->" << dst;
    }
  }
}

TEST(Dor, ResolvesXBeforeY) {
  const Topology t = make_torus_2d(8, 8);
  // From (0,0) to (3,3): the first three hops move along x.
  const auto path = route_torus_dor(t, 0, 3 * 8 + 3);
  ASSERT_EQ(path.size(), 7u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 2u);
  EXPECT_EQ(path[3], 3u);
  EXPECT_EQ(path[4], 8u + 3u);
}

TEST(Dor, TakesShorterWrapDirection) {
  const Topology t = make_torus_2d(8, 8);
  // From x=0 to x=6 the wrap direction (0 -> 7 -> 6) is shorter.
  const auto path = route_torus_dor(t, 0, 6);
  EXPECT_EQ(path.size() - 1, 2u);
  EXPECT_EQ(path[1], 7u);
}

TEST(Dor, NextHopMatchesPath) {
  // The step's node is the path's second node; its dimension is the first
  // one where s and dst differ, and it wraps iff that coordinate jumps
  // between 0 and 4.
  const Topology t = make_torus_2d(5, 5);
  for (NodeId s = 0; s < 25; ++s) {
    for (NodeId dst = 0; dst < 25; ++dst) {
      const DorStep step = torus_dor_next_hop(t, s, dst);
      if (s == dst) {
        EXPECT_EQ(step.next, kInvalidNode);
        continue;
      }
      const auto path = route_torus_dor(t, s, dst);
      EXPECT_EQ(step.next, path[1]);
      const std::uint32_t dim = s % 5 != dst % 5 ? 0 : 1;
      EXPECT_EQ(step.dim, dim) << s << "->" << dst;
      const NodeId stride = dim == 0 ? 1 : 5;
      const std::uint32_t from = s / stride % 5, to = step.next / stride % 5;
      EXPECT_EQ(step.wrap, from + to == 4 && (from == 0 || to == 0)) << s << "->" << dst;
    }
  }
}

TEST(Dor, ScanMatchesTorusDiameter) {
  const Topology t = make_torus_2d(8, 8);
  const auto ra = analyze::analyze_topology_routes(t, analyze::RoutingFamily::kTorusDor);
  EXPECT_EQ(ra.max_hops, 8u);  // 4 + 4
  const auto stats = compute_path_stats(t.graph);
  EXPECT_NEAR(ra.avg_hops, stats.avg_shortest_path, 1e-9);
}

TEST(Dor, RejectsNonTorus) {
  const Topology ring = make_ring(8);
  EXPECT_THROW(route_torus_dor(ring, 0, 3), PreconditionError);
}

}  // namespace
}  // namespace dsn
