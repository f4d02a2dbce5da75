// Tests for the DSN custom routing algorithm (Fig. 2): correctness over all
// pairs, the Fact 2 / Fact 3 / Theorem 2a bounds, phase structure, the
// overshoot-avoiding and nearest-PRE-WORK variants, DSN-D and flexible
// routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/math.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"

namespace dsn {
namespace {

/// The helpers below serve tests that read route verdicts and lengths, never
/// the CDG cycle witness, so they skip the minimal witness search.
analyze::RouteAnalysisOptions without_min_cycle() {
  analyze::RouteAnalysisOptions options;
  options.find_min_cycle = false;
  return options;
}

/// Analyze a routing function over all ordered pairs of `g` with a single
/// channel class, for its route-length statistics.
analyze::RouteAnalysis analyze_all_pairs(const Graph& g, const analyze::RouteFill& fill) {
  return analyze::analyze_route_function(
      g, fill, [](const Route& r, std::vector<Channel>& out) { dsn_route_channels_basic(r, out); },
      /*hop_bound=*/0, /*hop_bound_law=*/{}, without_min_cycle());
}

analyze::RouteAnalysis analyze_basic(const Dsn& d) {
  return analyze::analyze_dsn_routes(d, analyze::ChannelScheme::kBasic, without_min_cycle());
}

// --------------------------------------------------------------------------
// Correctness over all pairs, parameterized on (n, x).
// --------------------------------------------------------------------------

struct RoutingCase {
  std::uint32_t n;
  std::uint32_t x;  // 0 = default (p-1)
};

class DsnRoutingAllPairs : public ::testing::TestWithParam<RoutingCase> {};

TEST_P(DsnRoutingAllPairs, EveryRouteIsValidAndNoFallback) {
  const auto [n, x_in] = GetParam();
  const std::uint32_t x = x_in == 0 ? dsn_default_x(n) : x_in;
  const Dsn d(n, x);
  // Every route starts at s, chains to t over physical links, keeps its
  // phases in order and never falls back.
  const analyze::RouteAnalysis ra = analyze_basic(d);
  EXPECT_TRUE(ra.all_reachable) << analyze::summary(ra);
  EXPECT_TRUE(ra.hops_on_links) << analyze::summary(ra);
  EXPECT_TRUE(ra.phases_ordered) << analyze::summary(ra);
  EXPECT_EQ(ra.fallback_routes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DsnRoutingAllPairs,
    ::testing::Values(RoutingCase{32, 0}, RoutingCase{64, 0}, RoutingCase{100, 0},
                      RoutingCase{128, 0}, RoutingCase{255, 0}, RoutingCase{256, 0},
                      RoutingCase{257, 0}, RoutingCase{64, 3}, RoutingCase{64, 1},
                      RoutingCase{128, 4}, RoutingCase{512, 0}));

// --------------------------------------------------------------------------
// Fact 2: routing diameter <= 3p + r for x > p - log p.
// --------------------------------------------------------------------------

class DsnRoutingBounds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DsnRoutingBounds, Fact2RoutingDiameter) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const analyze::RouteAnalysis ra = analyze_basic(d);
  EXPECT_EQ(ra.pairs, static_cast<std::uint64_t>(n) * (n - 1));
  EXPECT_LE(ra.max_hops, 3 * d.p() + d.r()) << "n = " << n;
  EXPECT_EQ(ra.fallback_routes, 0u);
}

TEST_P(DsnRoutingBounds, Theorem2aExpectedRouteLength) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  EXPECT_LE(analyze_basic(d).avg_hops, 2.0 * d.p()) << "n = " << n;
}

TEST_P(DsnRoutingBounds, Theorem2aExpectedShortestPath) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const auto stats = compute_path_stats(d.topology().graph);
  EXPECT_LE(stats.avg_shortest_path, 1.5 * d.p()) << "n = " << n;
}

TEST_P(DsnRoutingBounds, RouteNeverShorterThanShortestPath) {
  const std::uint32_t n = GetParam();
  if (n > 300) GTEST_SKIP() << "covered by smaller sizes; keeps runtime bounded";
  const Dsn d(n, dsn_default_x(n));
  const DsnRouter router(d);
  for (NodeId s = 0; s < n; s += 7) {
    const auto dist = bfs_distances(d.topology().graph, s);
    for (NodeId t = 0; t < n; ++t) {
      const Route r = router.route(s, t);
      EXPECT_GE(r.length(), dist[t]) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DsnRoutingBounds,
                         ::testing::Values(32u, 64u, 100u, 128u, 256u, 300u, 512u,
                                           1024u));

// --------------------------------------------------------------------------
// Phase structure.
// --------------------------------------------------------------------------

TEST(DsnRouting, PhasesHaveExpectedLinkKinds) {
  const Dsn d(256, 7);
  const DsnRouter router(d);
  for (NodeId s = 0; s < 256; s += 11) {
    for (NodeId t = 0; t < 256; t += 7) {
      const Route r = router.route(s, t);
      for (const RouteHop& h : r.hops) {
        switch (h.phase) {
          case RoutePhase::kPreWork:
            EXPECT_TRUE(h.kind == HopKind::kPred || h.kind == HopKind::kSucc);
            break;
          case RoutePhase::kMain:
            EXPECT_TRUE(h.kind == HopKind::kSucc || h.kind == HopKind::kShortcut);
            break;
          case RoutePhase::kFinish:
            EXPECT_TRUE(h.kind == HopKind::kPred || h.kind == HopKind::kSucc);
            break;
        }
      }
    }
  }
}

TEST(DsnRouting, PreWorkOnlyDefault) {
  // Without nearest_prework, PRE-WORK only walks pred links (Fig. 2 line 5).
  const Dsn d(128, 6);
  const DsnRouter router(d);
  for (NodeId s = 0; s < 128; ++s) {
    for (NodeId t = 0; t < 128; t += 5) {
      for (const RouteHop& h : router.route(s, t).hops) {
        if (h.phase == RoutePhase::kPreWork) {
          EXPECT_EQ(h.kind, HopKind::kPred);
        }
      }
    }
  }
}

TEST(DsnRouting, MainLevelsMonotonicallyIncrease) {
  // Within MAIN, the level of the current node never decreases (the
  // deadlock-freedom argument of Theorem 3 relies on this monotonicity).
  const Dsn d(256, 7);
  const DsnRouter router(d);
  for (NodeId s = 0; s < 256; s += 3) {
    for (NodeId t = 0; t < 256; t += 5) {
      const Route r = router.route(s, t);
      std::uint32_t prev_level = 0;
      for (const RouteHop& h : r.hops) {
        if (h.phase != RoutePhase::kMain) continue;
        const std::uint32_t from_level = d.level(h.from);
        if (prev_level != 0) {
          EXPECT_GE(from_level, prev_level)
              << s << "->" << t << " at " << h.from;
        }
        prev_level = from_level;
      }
    }
  }
}

TEST(DsnRouting, SelfRouteIsEmpty) {
  const Dsn d(64, 5);
  const DsnRouter router(d);
  const Route r = router.route(10, 10);
  EXPECT_EQ(r.length(), 0u);
  EXPECT_EQ(r.src, 10u);
  EXPECT_EQ(r.dst, 10u);
}

TEST(DsnRouting, AdjacentNodesRouteDirectly) {
  const Dsn d(64, 5);
  const DsnRouter router(d);
  EXPECT_EQ(router.route(5, 6).length(), 1u);
  EXPECT_EQ(router.route(6, 5).length(), 1u);
  EXPECT_EQ(router.route(0, 63).length(), 1u);
  EXPECT_EQ(router.route(63, 0).length(), 1u);
}

TEST(DsnRouting, RejectsOutOfRange) {
  const Dsn d(64, 5);
  const DsnRouter router(d);
  EXPECT_THROW(router.route(64, 0), PreconditionError);
  EXPECT_THROW(router.route(0, 64), PreconditionError);
}

// --------------------------------------------------------------------------
// Variants.
// --------------------------------------------------------------------------

TEST(DsnRoutingVariants, AvoidOvershootNeverOvershoots) {
  const std::uint32_t n = 200;
  const Dsn d(n, dsn_default_x(n));
  DsnRoutingOptions opt;
  opt.avoid_overshoot = true;
  const DsnRouter router(d, opt);
  const analyze::RouteAnalysis ra = analyze_all_pairs(
      d.topology().graph, [&](NodeId s, NodeId t, Route& out) { router.route(s, t, out); });
  EXPECT_TRUE(ra.all_reachable && ra.hops_on_links && ra.phases_ordered)
      << analyze::summary(ra);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      const Route r = router.route(s, t);
      // Nothing ever overshoots: once MAIN has run, FINISH never needs to
      // walk counterclockwise. (Routes that are pure short backward walks
      // never enter MAIN and legitimately use pred links.)
      const bool has_main = std::any_of(
          r.hops.begin(), r.hops.end(),
          [](const RouteHop& h) { return h.phase == RoutePhase::kMain; });
      if (!has_main) continue;
      for (const RouteHop& h : r.hops) {
        if (h.phase == RoutePhase::kFinish) {
          EXPECT_EQ(h.kind, HopKind::kSucc) << s << "->" << t;
        }
      }
    }
  }
}

TEST(DsnRoutingVariants, NearestPreworkWithinBounds) {
  const std::uint32_t n = 256;
  const Dsn d(n, dsn_default_x(n));
  DsnRoutingOptions opt;
  opt.nearest_prework = true;
  const DsnRouter router(d, opt);
  const analyze::RouteAnalysis ra = analyze_all_pairs(
      d.topology().graph, [&](NodeId s, NodeId t, Route& out) { router.route(s, t, out); });
  EXPECT_EQ(ra.fallback_routes, 0u);
  // Fact 3 argument: the nearest-direction PRE-WORK path stays within the
  // routing diameter bound.
  EXPECT_LE(ra.max_hops, 3 * d.p() + d.r());
}

TEST(DsnRoutingVariants, NearestPreworkNotWorseOnAverage) {
  const std::uint32_t n = 512;
  const Dsn d(n, dsn_default_x(n));
  DsnRoutingOptions opt;
  opt.nearest_prework = true;
  const DsnRouter nearest(d, opt);
  const analyze::RouteAnalysis plain = analyze_basic(d);
  const analyze::RouteAnalysis near = analyze_all_pairs(
      d.topology().graph, [&](NodeId s, NodeId t, Route& out) { nearest.route(s, t, out); });
  EXPECT_LE(near.avg_hops, plain.avg_hops + 1e-9);
}

// --------------------------------------------------------------------------
// DSN-D routing.
// --------------------------------------------------------------------------

TEST(DsnDRouting, AllPairsValidAndComplete) {
  const DsnD dd(256, 2);
  const Graph& g = dd.topology().graph;
  for (NodeId s = 0; s < 256; ++s) {
    for (NodeId t = 0; t < 256; ++t) {
      const Route r = route_dsn_d(dd, s, t);
      if (s == t) {
        EXPECT_EQ(r.length(), 0u);
        continue;
      }
      ASSERT_FALSE(r.hops.empty());
      EXPECT_EQ(r.hops.front().from, s);
      EXPECT_EQ(r.hops.back().to, t);
      for (const RouteHop& h : r.hops) {
        EXPECT_TRUE(g.has_link(h.from, h.to)) << s << "->" << t;
      }
      EXPECT_FALSE(r.used_fallback);
    }
  }
}

TEST(DsnDRouting, ImprovesRoutingDiameterTowards2p) {
  const std::uint32_t n = 512;
  const DsnD dd(n, 2);
  const Dsn plain(n, dd.base().x());
  const analyze::RouteAnalysis ra_d = analyze::analyze_dsn_d_routes(dd);
  const analyze::RouteAnalysis ra_p = analyze_basic(plain);
  EXPECT_LT(ra_d.max_hops, ra_p.max_hops);
  EXPECT_LT(ra_d.avg_hops, ra_p.avg_hops);
}

TEST(DsnDRouting, UsesExpressLinks) {
  const DsnD dd(256, 2);
  bool used_express = false;
  for (NodeId s = 0; s < 256 && !used_express; s += 3) {
    for (NodeId t = 0; t < 256 && !used_express; t += 5) {
      for (const RouteHop& h : route_dsn_d(dd, s, t).hops) {
        if (h.kind == HopKind::kExpress) {
          used_express = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(used_express);
}

// --------------------------------------------------------------------------
// Flexible DSN routing.
// --------------------------------------------------------------------------

TEST(FlexRouting, AllPairsValidAndComplete) {
  const FlexDsn f(60, 5, {10, 20, 30, 40});
  const Graph& g = f.topology().graph;
  const NodeId n = f.num_total();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      const Route r = route_dsn_flex(f, s, t);
      if (s == t) {
        EXPECT_EQ(r.length(), 0u);
        continue;
      }
      ASSERT_FALSE(r.hops.empty()) << s << "->" << t;
      EXPECT_EQ(r.hops.front().from, s);
      EXPECT_EQ(r.hops.back().to, t);
      for (std::size_t i = 0; i < r.hops.size(); ++i) {
        EXPECT_TRUE(g.has_link(r.hops[i].from, r.hops[i].to)) << s << "->" << t;
        if (i > 0) {
          EXPECT_EQ(r.hops[i - 1].to, r.hops[i].from);
        }
      }
    }
  }
}

TEST(FlexRouting, BoundedInflationOverBase) {
  const FlexDsn f(120, 6, {3, 50, 100});
  const Dsn base(120, 6);
  const analyze::RouteAnalysis flex = analyze_all_pairs(
      f.topology().graph, [&](NodeId s, NodeId t, Route& out) { out = route_dsn_flex(f, s, t); });
  EXPECT_EQ(flex.pairs, static_cast<std::uint64_t>(f.num_total()) * (f.num_total() - 1));
  // Each minor adds at most ~1 hop near its major plus the final walk.
  EXPECT_LE(flex.max_hops, analyze_basic(base).max_hops + 2 * 3 + 2);
}

// --------------------------------------------------------------------------
// Out-parameter forms: a reused, dirty buffer gives the value form's result.
// --------------------------------------------------------------------------

void expect_same_route(const Route& got, const Route& want) {
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.used_fallback, want.used_fallback);
  ASSERT_EQ(got.hops.size(), want.hops.size());
  for (std::size_t i = 0; i < want.hops.size(); ++i) {
    EXPECT_EQ(got.hops[i].from, want.hops[i].from) << "hop " << i;
    EXPECT_EQ(got.hops[i].to, want.hops[i].to) << "hop " << i;
    EXPECT_EQ(got.hops[i].phase, want.hops[i].phase) << "hop " << i;
    EXPECT_EQ(got.hops[i].kind, want.hops[i].kind) << "hop " << i;
  }
}

/// Leave the previous pair's hops in `r` (adding one if there are none) and
/// poison its endpoints and fallback flag.
void dirty(Route& r) {
  r.src = 12345;
  r.dst = 54321;
  r.used_fallback = true;
  if (r.hops.empty()) r.hops.push_back({7, 8, RoutePhase::kFinish, HopKind::kExpress});
}

/// Leave the previous route's channels in `c`, plus one stray channel.
void dirty(std::vector<Channel>& c) { c.push_back({9, 9, 9}); }

/// Compare `fill(s, t, buffer)` on one reused dirty buffer with the value
/// form `value(s, t)` over all ordered pairs, self pairs included.
template <typename Fill, typename Value>
void expect_fill_matches_value(NodeId n, const Fill& fill, const Value& value) {
  Route buffer;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      dirty(buffer);
      fill(s, t, buffer);
      expect_same_route(buffer, value(s, t));
      if (::testing::Test::HasFailure()) FAIL() << s << " -> " << t;
    }
  }
}

TEST(RouteBuffers, DsnRouterFillsDirtyBufferLikeValueForm) {
  DsnRoutingOptions avoid, nearest;
  avoid.avoid_overshoot = true;
  nearest.nearest_prework = true;
  for (const std::uint32_t n : {64u, 100u, 256u, 300u}) {
    for (const std::uint32_t x : {dsn_default_x(n), 2u}) {
      const Dsn d(n, x);
      for (const DsnRoutingOptions& options : {DsnRoutingOptions{}, avoid, nearest}) {
        SCOPED_TRACE("n = " + std::to_string(n) + ", x = " + std::to_string(x) +
                     ", avoid_overshoot = " + std::to_string(options.avoid_overshoot) +
                     ", nearest_prework = " + std::to_string(options.nearest_prework));
        const DsnRouter router(d, options);
        expect_fill_matches_value(
            n, [&](NodeId s, NodeId t, Route& out) { router.route(s, t, out); },
            [&](NodeId s, NodeId t) { return router.route(s, t); });
        if (HasFailure()) return;
      }
    }
  }
}

/// 64-bit FNV-1a over every ordered pair's route — endpoints, each hop's
/// nodes, phase and kind, and the fallback flag — as hex.
std::string all_routes_digest(const DsnRouter& router) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  const NodeId n = router.dsn().n();
  Route r;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      router.route(s, t, r);
      mix(s);
      mix(t);
      mix(r.hops.size());
      for (const RouteHop& hop : r.hops) {
        mix(hop.from);
        mix(hop.to);
        mix(static_cast<std::uint64_t>(hop.phase) << 8 | static_cast<std::uint64_t>(hop.kind));
      }
      mix(r.used_fallback ? 1 : 0);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(DsnRouting, AllPairsRoutesPinned) {
  // route() byte for byte, for every option set: the step-wise router must
  // reproduce these digests exactly.
  DsnRoutingOptions avoid, nearest;
  avoid.avoid_overshoot = true;
  nearest.nearest_prework = true;
  const struct {
    std::uint32_t n;
    bool default_x;  ///< false = x 2
    const char* digests[3];  ///< default, avoid_overshoot, nearest_prework
  } pins[] = {
      {64, true, {"ed1ffd8da88a60a9", "0f27f5a5f48de071", "562c0007ce6cea10"}},
      {64, false, {"1d8161a23812c5e0", "05e77990d9199946", "45b1c06b1f519d88"}},
      {100, true, {"4223e7713d05c013", "e5181875ce43f939", "b326e9cc37e75f7c"}},
      {100, false, {"7c6231d23868b18a", "7079c548c631c55a", "a4dda2c98fb72a40"}},
      {256, true, {"26a4d4b993cc7ec5", "d8601e14fb6ef81d", "9f54be3dfedb82bd"}},
      {256, false, {"02edd2997c98e4d1", "6961764019db3a99", "10a1fbadfb1d6955"}},
      {300, true, {"3d05436f68288f3f", "89d9c15f090ddcd4", "387e57ab465fb8e0"}},
      {300, false, {"668c81c7ea815e40", "fbe43c0b021156cf", "d501a2f91a91d670"}},
  };
  for (const auto& pin : pins) {
    const Dsn d(pin.n, pin.default_x ? dsn_default_x(pin.n) : 2u);
    const DsnRoutingOptions variants[] = {DsnRoutingOptions{}, avoid, nearest};
    for (std::size_t v = 0; v < 3; ++v) {
      EXPECT_EQ(all_routes_digest(DsnRouter(d, variants[v])), pin.digests[v])
          << "n = " << pin.n << ", x = " << d.x() << ", variant " << v;
    }
  }
}

TEST(RouteBuffers, DsnDRouteFillsDirtyBufferLikeValueForm) {
  for (const std::uint32_t n : {64u, 100u, 256u, 300u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const DsnD dd(n, 2);
    expect_fill_matches_value(
        n, [&](NodeId s, NodeId t, Route& out) { route_dsn_d(dd, s, t, out); },
        [&](NodeId s, NodeId t) { return route_dsn_d(dd, s, t); });
    if (HasFailure()) return;
  }
}

TEST(RouteBuffers, ChannelMapsFillDirtyBufferLikeValueForms) {
  for (const std::uint32_t n : {64u, 100u, 256u, 300u}) {
    for (const std::uint32_t x : {dsn_default_x(n), 2u}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", x = " + std::to_string(x));
      const Dsn d(n, x);
      const DsnRouter router(d);
      std::vector<Channel> extended, basic;
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          const Route r = router.route(s, t);
          dirty(extended);
          dirty(basic);
          dsn_route_channels_extended(d, r, extended);
          dsn_route_channels_basic(r, basic);
          ASSERT_EQ(extended, dsn_route_channels_extended(d, r)) << s << " -> " << t;
          ASSERT_EQ(basic, dsn_route_channels_basic(r)) << s << " -> " << t;
        }
      }
    }
  }
}

TEST(RouteBuffers, BoundRoutingFillsDirtyBuffersLikeValueForm) {
  // Every family's binding: fill_route on a dirty buffer equals route(), and
  // fill_channels on a dirty vector equals a fill into a fresh one.
  const struct {
    const char* topology;
    analyze::RoutingFamily family;
  } cases[] = {
      {"dsn", analyze::RoutingFamily::kDsn},
      {"dsn-e", analyze::RoutingFamily::kDsn},
      {"dsn-bidir", analyze::RoutingFamily::kDsn},
      {"dsn-d", analyze::RoutingFamily::kDsnD},
      {"torus", analyze::RoutingFamily::kTorusDor},
      {"kleinberg", analyze::RoutingFamily::kGreedyGrid},
      {"random-regular", analyze::RoutingFamily::kUpDown},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.topology);
    const Topology topo = make_topology_by_name(c.topology, 64, 7);
    const analyze::BoundRouting b = analyze::make_route_function(topo, c.family);
    expect_fill_matches_value(topo.num_nodes(), b.fill_route,
                              [&](NodeId s, NodeId t) { return b.route(s, t); });
    if (HasFailure()) return;
    std::vector<Channel> reused;
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      for (NodeId t = 0; t < topo.num_nodes(); ++t) {
        const Route r = b.route(s, t);
        std::vector<Channel> fresh;
        b.fill_channels(r, fresh);
        dirty(reused);
        b.fill_channels(r, reused);
        ASSERT_EQ(reused, fresh) << s << " -> " << t;
      }
    }
  }
}

}  // namespace
}  // namespace dsn
