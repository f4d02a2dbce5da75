// Tests for the simulator routing tables (minimal adaptive + escape) and the
// three routing policies' candidate sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/fault.hpp"
#include "dsn/sim/policy.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/traffic.hpp"
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

/// The minimal next hops SimRouting yields for (u, t), in yield order.
std::vector<NodeId> minimal_hops(const SimRouting& routing, NodeId u, NodeId t) {
  std::vector<NodeId> hops;
  routing.for_each_minimal_next_hop(u, t, [&](NodeId v) { hops.push_back(v); });
  return hops;
}

TEST(SimRouting, MinimalNextHopsAreExactlyCloserNeighbors) {
  const Topology topo = make_topology_by_name("random", 32, 3);
  const SimRouting routing(topo);
  for (NodeId u = 0; u < 32; ++u) {
    for (NodeId t = 0; t < 32; ++t) {
      const std::vector<NodeId> hops = minimal_hops(routing, u, t);
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
// Goldens: pinned digests of the minimal next-hop lists (order and parallel
// link repeats included) and of whole runs under both up*/down* policies.
// --------------------------------------------------------------------------

/// 64-bit FNV-1a, fed 32-bit values little-endian or raw bytes.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Every (u, t)'s minimal next-hop list: its length, then its entries.
std::string next_hop_digest(const SimRouting& routing, NodeId n) {
  Fnv1a f;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId t = 0; t < n; ++t) {
      const std::vector<NodeId> hops = minimal_hops(routing, u, t);
      f.u32(static_cast<std::uint32_t>(hops.size()));
      for (const NodeId v : hops) f.u32(v);
    }
  }
  return f.hex();
}

TEST(SimRouting, GoldenMinimalNextHops) {
  struct Case {
    const char* family;
    std::uint32_t n;
    std::uint64_t seed;
    const char* pristine;
    const char* degraded;
  };
  const Case cases[] = {
      {"dsn-e", 96, 1, "c67d0ce21018ee36", "35a8254bb9c26db3"},
      {"torus", 96, 1, "c30f9fabea982a03", "a30275f37e443d6c"},
      {"random-regular", 96, 3, "85fe2a667ade2a84", "6fa9dc80e103fbcb"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.family) + "-" + std::to_string(c.n));
    const Topology topo = make_topology_by_name(c.family, c.n, c.seed);
    EXPECT_EQ(next_hop_digest(SimRouting(topo), c.n), c.pristine);
    // Every 7th link down and switch 5 halted, up*/down* rooted at 0.
    std::vector<std::uint8_t> link_alive(topo.graph.num_links(), 1);
    for (LinkId l = 6; l < link_alive.size(); l += 7) link_alive[l] = 0;
    std::vector<std::uint8_t> switch_alive(c.n, 1);
    switch_alive[5] = 0;
    EXPECT_EQ(next_hop_digest(SimRouting(topo, link_alive, switch_alive, 0), c.n), c.degraded);
  }
}

std::string run_digest(const Topology& topo, SimRoutingPolicy& policy, const SimConfig& cfg,
                       const FaultSchedule& schedule = {}) {
  UniformTraffic traffic(topo.num_nodes() * cfg.hosts_per_switch);
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  Fnv1a f;
  for (const char c : to_json(sim.run()).dump()) f.byte(static_cast<unsigned char>(c));
  return f.hex();
}

TEST(SimRouting, GoldenRuns) {
  SimConfig cfg;
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 3'000;
  cfg.drain_cycles = 30'000;
  const Topology dsn = make_topology_by_name("dsn", 64);
  const SimRouting routing(dsn);
  AdaptiveUpDownPolicy adaptive(routing, cfg.vcs);
  EXPECT_EQ(run_digest(dsn, adaptive, cfg), "a14ff7ddaba015eb");
  UpDownOnlyPolicy updown(routing, cfg.vcs);
  EXPECT_EQ(run_digest(dsn, updown, cfg), "fbb09b2fe486bbe1");

  // DSN-E-48: switch 5 halts for good (the TTL accounts the packets bound for
  // it), and ring link 20-21 goes down and comes back while its parallel Up
  // link stays up, so the degraded tables list the hop 20 -> 21 once, not
  // twice.
  const Topology dsn_e = make_topology_by_name("dsn-e", 48);
  const LinkId ring = dsn_e.graph.find_link(20, 21);
  ASSERT_EQ(dsn_e.link_roles[ring], LinkRole::kRing);
  SimConfig fault_cfg;
  fault_cfg.warmup_cycles = 0;
  fault_cfg.measure_cycles = 2'000;
  fault_cfg.drain_cycles = 40'000;
  fault_cfg.epoch_cycles = 250;
  fault_cfg.packet_ttl_cycles = 4'000;
  FaultSchedule schedule;
  schedule.switch_down(300, 5).link_down(500, ring).link_up(1'500, ring);
  const SimRouting e_routing(dsn_e);
  AdaptiveUpDownPolicy e_adaptive(e_routing, fault_cfg.vcs);
  EXPECT_EQ(run_digest(dsn_e, e_adaptive, fault_cfg, schedule), "d1ad4a977dbe39c2");
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
