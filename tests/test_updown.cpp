// Tests for up*/down* routing: legality of every produced path, completeness,
// shortest-legal-path optimality of the routes the next-hop tables walk
// against a reference search, and the phase-consistency of the two tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/updown.hpp"

namespace dsn {
namespace {

void expect_legal(const UpDownRouting& ud, const std::vector<NodeId>& path) {
  bool gone_down = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool up = ud.is_up(path[i], path[i + 1]);
    if (!up) gone_down = true;
    if (gone_down) {
      EXPECT_FALSE(up) << "up hop after down hop at position " << i;
    }
  }
}

/// Brute-force shortest legal hop count from `s` to every node: BFS over
/// (node, phase) states in the forward direction, independent of the
/// production implementation (which searches backward from each destination).
std::vector<std::uint32_t> legal_hops_from(const Graph& g, const UpDownRouting& ud, NodeId s) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> dist(2 * n, kUnreachable);
  std::deque<std::uint32_t> q;
  dist[2 * s] = 0;
  q.push_back(2 * s);
  while (!q.empty()) {
    const auto state = q.front();
    q.pop_front();
    const NodeId u = state / 2;
    const bool down_only = state % 2;
    for (const AdjHalf& h : g.neighbors(u)) {
      const bool up = ud.is_up(u, h.to);
      if (down_only && up) continue;
      const std::uint32_t next_state = 2 * h.to + (up ? (down_only ? 1 : 0) : 1);
      if (dist[next_state] == kUnreachable) {
        dist[next_state] = dist[state] + 1;
        q.push_back(next_state);
      }
    }
  }
  std::vector<std::uint32_t> hops(n);
  for (NodeId t = 0; t < n; ++t) hops[t] = std::min(dist[2 * t], dist[2 * t + 1]);
  return hops;
}

class UpDownTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UpDownTest, AllPairsLegalAndComplete) {
  const Topology topo = make_topology_by_name(GetParam(), 64, 3);
  const UpDownRouting ud(topo.graph, 0);
  for (NodeId s = 0; s < 64; ++s) {
    const std::vector<std::uint32_t> shortest = legal_hops_from(topo.graph, ud, s);
    for (NodeId t = 0; t < 64; ++t) {
      if (s == t) continue;
      const auto path = ud.route(s, t);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), t);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(topo.graph.has_link(path[i], path[i + 1]));
      }
      expect_legal(ud, path);
      EXPECT_EQ(path.size() - 1, shortest[t]) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, UpDownTest,
                         ::testing::Values("dsn", "torus", "random", "ring"));

TEST(UpDown, LegalDistanceAtLeastBfs) {
  const Topology topo = make_topology_by_name("dsn", 128);
  const UpDownRouting ud(topo.graph, 0);
  for (NodeId s = 0; s < 128; s += 5) {
    const auto bfs = bfs_distances(topo.graph, s);
    for (NodeId t = 0; t < 128; ++t) {
      if (s == t) continue;
      EXPECT_GE(ud.route(s, t).size() - 1, bfs[t]);
    }
  }
}

TEST(UpDown, LegalDistanceOptimalAgainstBruteForce) {
  // Following the next-hop tables (route()) walks a shortest legal path for
  // every ordered pair.
  const Topology topo = make_topology_by_name("random", 32, 11);
  const UpDownRouting ud(topo.graph, 0);
  const NodeId n = topo.graph.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    const std::vector<std::uint32_t> shortest = legal_hops_from(topo.graph, ud, s);
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      EXPECT_EQ(ud.route(s, t).size() - 1, shortest[t]) << s << "->" << t;
    }
  }
}

TEST(UpDown, RootHasLevelZero) {
  const Topology topo = make_topology_by_name("torus", 16);
  const UpDownRouting ud(topo.graph, 5);
  EXPECT_EQ(ud.root(), 5u);
  // Every hop away from the root on a tree path is a down hop.
  const auto path = ud.route(5, 0);
  EXPECT_FALSE(ud.is_up(path[0], path[1]));
}

TEST(UpDown, DownOnlyTableConsistent) {
  // Following next_hop with the phase threaded exactly as route() does must
  // terminate for every pair (no cycles between the two tables).
  const Topology topo = make_topology_by_name("dsn", 100);
  const UpDownRouting ud(topo.graph, 0);
  for (NodeId s = 0; s < 100; ++s) {
    for (NodeId t = 0; t < 100; ++t) {
      if (s == t) continue;
      NodeId u = s;
      bool down = false;
      std::size_t hops = 0;
      while (u != t) {
        const NodeId v = ud.next_hop(u, t, down);
        ASSERT_NE(v, kInvalidNode) << s << "->" << t << " stuck at " << u;
        if (!ud.is_up(u, v)) down = true;
        u = v;
        ASSERT_LE(++hops, 200u) << s << "->" << t;
      }
    }
  }
}

TEST(UpDown, ScanMatchesPairCount) {
  const Topology topo = make_topology_by_name("torus", 36);
  const auto ra = analyze::analyze_topology_routes(topo, analyze::RoutingFamily::kUpDown);
  EXPECT_EQ(ra.pairs, 36u * 35u);
  EXPECT_GT(ra.avg_hops, 1.0);
  EXPECT_GE(ra.max_hops, ra.avg_hops);
}

TEST(UpDown, UpDownInflatesPathsOnTorus) {
  // Classic result: up*/down* cannot use all minimal paths; on a torus the
  // average legal path exceeds the average shortest path.
  const Topology topo = make_topology_by_name("torus", 64);
  const auto ra = analyze::analyze_topology_routes(topo, analyze::RoutingFamily::kUpDown);
  const auto stats = compute_path_stats(topo.graph);
  EXPECT_GT(ra.avg_hops, stats.avg_shortest_path);
}

TEST(UpDown, RejectsDisconnected) {
  Graph g(4);
  g.add_link(0, 1);
  EXPECT_THROW(UpDownRouting(g, 0), PreconditionError);
}

TEST(UpDown, RejectsBadRoot) {
  const Topology topo = make_topology_by_name("ring", 8);
  EXPECT_THROW(UpDownRouting(topo.graph, 8), PreconditionError);
}

}  // namespace
}  // namespace dsn
