// Tests for up*/down* routing: legality of every produced path, completeness,
// shortest-legal-path optimality of the routes the next-hop tables walk
// against a reference search, and the phase-consistency of the two tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/updown.hpp"

namespace dsn {
namespace {

/// Tables over a fresh CSR snapshot of `g`, swept on the global pool.
UpDownRouting updown_over(const Graph& g, NodeId root) {
  return UpDownRouting(CsrView(g), root, ThreadPool::global());
}

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
  const UpDownRouting ud = updown_over(topo.graph, 0);
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
  const UpDownRouting ud = updown_over(topo.graph, 0);
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
  const UpDownRouting ud = updown_over(topo.graph, 0);
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
  const UpDownRouting ud = updown_over(topo.graph, 5);
  EXPECT_EQ(ud.root(), 5u);
  // Every hop away from the root on a tree path is a down hop.
  const auto path = ud.route(5, 0);
  EXPECT_FALSE(ud.is_up(path[0], path[1]));
}

TEST(UpDown, DownOnlyTableConsistent) {
  // Following next_hop with the phase threaded exactly as route() does must
  // terminate for every pair (no cycles between the two tables).
  const Topology topo = make_topology_by_name("dsn", 100);
  const UpDownRouting ud = updown_over(topo.graph, 0);
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
  EXPECT_THROW(updown_over(g, 0), PreconditionError);
}

TEST(UpDown, RejectsBadRoot) {
  const Topology topo = make_topology_by_name("ring", 8);
  EXPECT_THROW(updown_over(topo.graph, 8), PreconditionError);
}

TEST(UpDown, NextHopsInvariantAcrossPoolWorkers) {
  // The destination sweep runs on the caller's pool; the tables must not
  // depend on its worker count. DSN-E lists parallel links twice; the
  // disconnected case is a degraded rebuild's two-component graph.
  Graph split(40);
  for (NodeId u = 0; u < 40; ++u) {
    if (u % 20 != 19) split.add_link(u, u + 1);
    if (u + 7 < 40 && u / 20 == (u + 7) / 20) split.add_link(u, u + 7);
  }
  struct Case {
    std::string name;
    Graph graph;
    bool allow_disconnected;
  };
  const Case cases[] = {
      {"dsn-e-96", make_topology_by_name("dsn-e", 96).graph, false},
      {"random-regular-96", make_topology_by_name("random-regular", 96, 3).graph, false},
      {"two-components-40", split, true},
  };
  ThreadPool one(1), four(4), eight(8);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const CsrView csr(c.graph);
    const NodeId n = csr.num_nodes();
    const UpDownRouting base(csr, 0, one, c.allow_disconnected);
    for (ThreadPool* pool : {&four, &eight}) {
      const UpDownRouting ud(csr, 0, *pool, c.allow_disconnected);
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId t = 0; t < n; ++t) {
          for (const bool down_only : {false, true}) {
            ASSERT_EQ(ud.next_hop(u, t, down_only), base.next_hop(u, t, down_only))
                << u << "->" << t << " down_only=" << down_only
                << " workers=" << pool->size();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsn
