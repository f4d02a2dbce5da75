// Tests for the simulator routing tables (minimal adaptive + escape) and the
// three routing policies' candidate sets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/policy.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

TEST(SimRouting, DistancesMatchBfs) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const SimRouting routing(topo);
  for (NodeId s = 0; s < 64; s += 3) {
    const auto bfs = bfs_distances(topo.graph, s);
    for (NodeId t = 0; t < 64; ++t) {
      EXPECT_EQ(routing.distance(s, t), bfs[t]);
    }
  }
}

TEST(SimRouting, MinimalNextHopsAreExactlyCloserNeighbors) {
  const Topology topo = make_topology_by_name("random", 32, 3);
  const SimRouting routing(topo);
  for (NodeId u = 0; u < 32; ++u) {
    for (NodeId t = 0; t < 32; ++t) {
      const auto hops = routing.minimal_next_hops(u, t);
      if (u == t) {
        EXPECT_TRUE(hops.empty());
        continue;
      }
      ASSERT_FALSE(hops.empty()) << u << "->" << t;
      std::size_t closer = 0;
      for (const AdjHalf& h : topo.graph.neighbors(u)) {
        if (routing.distance(h.to, t) + 1 == routing.distance(u, t)) ++closer;
      }
      EXPECT_EQ(hops.size(), closer) << u << "->" << t;
      for (const NodeId v : hops) {
        EXPECT_EQ(routing.distance(v, t) + 1, routing.distance(u, t));
        EXPECT_TRUE(topo.graph.has_link(u, v));
      }
    }
  }
}

TEST(SimRouting, EscapeNextHopMatchesUpDown) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const SimRouting routing(topo);
  for (NodeId u = 0; u < 64; u += 5) {
    for (NodeId t = 0; t < 64; t += 3) {
      if (u == t) continue;
      EXPECT_EQ(routing.escape_next_hop(u, t, false), routing.updown().next_hop(u, t, false));
    }
  }
}

// --------------------------------------------------------------------------
// Policies.
// --------------------------------------------------------------------------

TEST(AdaptivePolicy, CandidateStructure) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const SimRouting routing(topo);
  const AdaptiveUpDownPolicy policy(routing, 4);
  std::vector<RouteCandidate> cands;
  for (NodeId u = 0; u < 64; u += 7) {
    for (NodeId t = 0; t < 64; t += 5) {
      if (u == t) continue;
      policy.candidates(u, t, 0, cands);
      ASSERT_FALSE(cands.empty());
      // Escape candidate is last and unique; adaptive ones use VCs 1..3.
      EXPECT_TRUE(cands.back().escape);
      EXPECT_EQ(cands.back().vc, 0u);
      for (std::size_t i = 0; i + 1 < cands.size(); ++i) {
        EXPECT_FALSE(cands[i].escape);
        EXPECT_GE(cands[i].vc, 1u);
        EXPECT_LE(cands[i].vc, 3u);
        // Adaptive candidates are minimal.
        EXPECT_EQ(routing.distance(cands[i].next, t) + 1, routing.distance(u, t));
      }
    }
  }
}

TEST(AdaptivePolicy, EscapeStateTracksDownHops) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const SimRouting routing(topo);
  const AdaptiveUpDownPolicy policy(routing, 4);
  // An adaptive hop always resets the state to 0.
  std::vector<RouteCandidate> cands;
  policy.candidates(5, 40, 1, cands);
  ASSERT_GE(cands.size(), 2u);
  for (std::size_t i = 0; i + 1 < cands.size(); ++i) EXPECT_EQ(cands[i].state, 0);
  // An escape hop sets the state iff it is a down hop.
  policy.candidates(5, 40, 0, cands);
  const RouteCandidate esc = cands.back();
  EXPECT_EQ(esc.state != 0, routing.escape_hop_is_down(5, esc.next));
}

TEST(AdaptivePolicy, RequiresTwoVcs) {
  const Topology topo = make_topology_by_name("ring", 8);
  const SimRouting routing(topo);
  EXPECT_THROW(AdaptiveUpDownPolicy(routing, 1), PreconditionError);
}

TEST(UpDownOnlyPolicy, SingleNextHopAllVcs) {
  const Topology topo = make_topology_by_name("random", 32, 3);
  const SimRouting routing(topo);
  const UpDownOnlyPolicy policy(routing, 4);
  std::vector<RouteCandidate> cands;
  policy.candidates(3, 20, 0, cands);
  ASSERT_EQ(cands.size(), 4u);
  for (const auto& c : cands) {
    EXPECT_EQ(c.next, cands[0].next);
    EXPECT_TRUE(c.escape);
  }
}

/// One policy walk from s to t: each hop follows the first candidate, and
/// every candidate of a hop must agree on the next switch, the channel class
/// and the state. Stops at t, at a switch with no candidates, or after
/// `max_hops`.
struct PolicyWalk {
  std::vector<Channel> channels;       ///< (from, to, class) per hop
  std::vector<std::uint8_t> states;    ///< walk state after each hop
  bool arrived = false;
};

PolicyWalk walk_policy(const DsnCustomPolicy& policy, NodeId s, NodeId t,
                       std::size_t max_hops) {
  PolicyWalk w;
  std::vector<RouteCandidate> cands;
  NodeId u = s;
  std::uint8_t state = policy.initial_state();
  while (u != t && w.channels.size() < max_hops) {
    policy.candidates(u, t, state, cands);
    if (cands.empty()) return w;
    const std::uint32_t k = policy.vcs_per_class();
    for (const RouteCandidate& c : cands) {
      EXPECT_EQ(c.next, cands[0].next);
      EXPECT_EQ(c.vc / k, cands[0].vc / k);
      EXPECT_EQ(c.state, cands[0].state);
      EXPECT_FALSE(c.escape);
    }
    w.channels.push_back({u, cands[0].next, static_cast<std::uint8_t>(cands[0].vc / k)});
    w.states.push_back(cands[0].state);
    u = cands[0].next;
    state = cands[0].state;
  }
  w.arrived = u == t;
  return w;
}

TEST(DsnCustomPolicy, FollowingDecisionsReachesEveryDestination) {
  const std::uint32_t n = 256;
  const Dsn d(n, dsn_default_x(n));
  const DsnCustomPolicy policy(d);
  const Graph& g = d.topology().graph;
  std::vector<RouteCandidate> cands;
  for (NodeId s = 0; s < n; s += 3) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      NodeId u = s;
      std::uint8_t state = policy.initial_state();
      std::size_t hops = 0;
      while (u != t) {
        policy.candidates(u, t, state, cands);
        ASSERT_FALSE(cands.empty()) << s << "->" << t << " at " << u;
        const RouteCandidate& c = cands[0];
        ASSERT_TRUE(g.has_link(u, c.next)) << s << "->" << t << " at " << u;
        // The walk state only ever advances (Theorem 3 monotonicity).
        ASSERT_GE(c.state, state) << s << "->" << t << " at " << u;
        state = c.state;
        u = c.next;
        ASSERT_LE(++hops, static_cast<std::size_t>(4 * d.p() + d.r()) + 8)
            << s << "->" << t;
      }
    }
  }
}

TEST(DsnCustomPolicy, VcClassesMatchPhases) {
  // Each hop rides the channel class of the phase of the router's hop:
  // PRE-WORK on Up, MAIN on Main, FINISH on Finish or Extra.
  const std::uint32_t n = 128;
  const Dsn d(n, dsn_default_x(n));
  const DsnCustomPolicy policy(d);
  const DsnRouter router(d);
  const std::uint32_t k = policy.vcs_per_class();
  std::vector<RouteCandidate> cands;
  for (NodeId s = 0; s < n; s += 5) {
    for (NodeId t = 0; t < n; t += 3) {
      if (s == t) continue;
      NodeId u = s;
      std::uint8_t state = policy.initial_state();
      while (u != t) {
        policy.candidates(u, t, state, cands);
        ASSERT_FALSE(cands.empty()) << s << "->" << t << " at " << u;
        const RouteCandidate& c = cands[0];
        const DsnStep hop = router.step(u, t, static_cast<DsnWalkState>(state));
        ASSERT_EQ(c.next, hop.next) << s << "->" << t << " at " << u;
        ASSERT_EQ(c.state, static_cast<std::uint8_t>(hop.state)) << s << "->" << t;
        const std::uint32_t cls = c.vc / k;
        switch (hop.phase) {
          case RoutePhase::kPreWork:
            EXPECT_EQ(cls, kClassUp) << s << "->" << t << " at " << u;
            break;
          case RoutePhase::kMain:
            EXPECT_EQ(cls, kClassMain) << s << "->" << t << " at " << u;
            break;
          case RoutePhase::kFinish:
            EXPECT_TRUE(cls == kClassFinish || cls == kClassExtra)
                << s << "->" << t << " at " << u;
            break;
        }
        state = c.state;
        u = c.next;
      }
    }
  }
}

TEST(DsnCustomPolicy, ExtraClassOnlyNearZeroWithDestinationInRegion) {
  const std::uint32_t n = 128;
  const Dsn d(n, dsn_default_x(n));
  const DsnCustomPolicy policy(d);
  const std::uint32_t region = 2 * d.p();
  const std::uint32_t k = policy.vcs_per_class();
  std::vector<RouteCandidate> cands;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      NodeId u = s;
      std::uint8_t state = policy.initial_state();
      std::size_t hops = 0;
      while (u != t && hops < 100) {
        policy.candidates(u, t, state, cands);
        ASSERT_FALSE(cands.empty()) << s << "->" << t << " at " << u;
        const RouteCandidate& c = cands[0];
        if (c.vc / k == kClassExtra) {
          EXPECT_LT(t, region);
          EXPECT_LE(u, region);
          EXPECT_LE(c.next, region);
        }
        state = c.state;
        u = c.next;
        ++hops;
      }
      EXPECT_EQ(u, t) << s << "->" << t;
    }
  }
}

TEST(DsnCustomPolicy, FaultFreeWalkIsTheRoutersRouteOnItsChannelClasses) {
  // The flit simulator walks exactly what the analyzer proves and the flow
  // tier loads: DsnRouter's route with default options, hop for hop, each
  // hop on the class dsn_route_channels_extended gives it.
  for (const std::uint32_t n : {64u, 100u, 256u, 300u, 1024u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const Dsn d(n, dsn_default_x(n));
    const DsnCustomPolicy policy(d);
    const DsnRouter router(d);
    Route route;
    std::vector<Channel> expected;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        router.route(s, t, route);
        dsn_route_channels_extended(d, route, expected);
        const PolicyWalk w = walk_policy(policy, s, t, expected.size() + 1);
        ASSERT_TRUE(w.arrived) << s << " -> " << t;
        ASSERT_EQ(w.channels, expected) << s << " -> " << t;
      }
    }
  }
}

TEST(DsnCustomPolicy, SingleLinkFailureWalksArriveOverLiveLinks) {
  // Degraded mode under every single link failure (ring or shortcut): every
  // ordered pair still arrives over live links, and the walk state never
  // moves backward — a detour around a dead ring link keeps its direction.
  for (const std::uint32_t n : {64u, 100u}) {
    const Dsn d(n, dsn_default_x(n));
    const Topology& topo = d.topology();
    const Graph& g = topo.graph;
    const std::size_t max_hops = 2 * n + 3 * d.p() + d.r();
    std::vector<std::uint8_t> link_alive(g.num_links(), 1);
    const std::vector<std::uint8_t> switch_alive(n, 1);
    for (LinkId dead = 0; dead < g.num_links(); ++dead) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", dead link " + std::to_string(dead));
      DsnCustomPolicy policy(d);
      link_alive[dead] = 0;
      policy.on_fault_update({&topo, link_alive, switch_alive});
      link_alive[dead] = 1;
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          if (s == t) continue;
          const PolicyWalk w = walk_policy(policy, s, t, max_hops);
          ASSERT_TRUE(w.arrived) << s << " -> " << t;
          for (std::size_t i = 0; i < w.channels.size(); ++i) {
            const Channel& c = w.channels[i];
            bool live = false;
            for (const AdjHalf& h : g.neighbors(c.from)) {
              live = live || (h.to == c.to && h.link != dead);
            }
            ASSERT_TRUE(live) << s << " -> " << t << " hop " << i;
            if (i > 0) {
              ASSERT_GE(w.states[i], w.states[i - 1]) << s << " -> " << t;
            }
          }
        }
      }
    }
  }
}

TEST(DsnCustomPolicy, MultiVcExpansion) {
  const Dsn d(64, dsn_default_x(64));
  const DsnCustomPolicy policy(d, 8);
  EXPECT_EQ(policy.vcs_per_class(), 2u);
  std::vector<RouteCandidate> cands;
  policy.candidates(10, 40, static_cast<std::uint8_t>(DsnWalkState::kMain), cands);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].next, cands[1].next);
  EXPECT_EQ(cands[0].vc / 2, cands[1].vc / 2);  // same class
  EXPECT_NE(cands[0].vc, cands[1].vc);
}

TEST(DsnCustomPolicy, RejectsNonMultipleOf4Vcs) {
  const Dsn d(64, dsn_default_x(64));
  EXPECT_THROW(DsnCustomPolicy(d, 6), PreconditionError);
}

}  // namespace
}  // namespace dsn
