// Property tests for the whole-network route analyzer (dsn::analyze):
// the Theorem 2 / Theorem 3 proofs on well-formed DSNs, refutation witnesses
// on injected routing defects, and the static channel-load accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

using analyze::ChannelScheme;
using analyze::RouteAnalysis;
using analyze::RouteAnalysisOptions;
using analyze::RoutingFamily;

// --------------------------------------------------------------------------
// Proofs on well-formed networks.
// --------------------------------------------------------------------------

TEST(RouteAnalysis, BasicDsnRoutesProvenLoopFreeAndComplete) {
  for (const std::uint32_t n : {64u, 100u, 256u}) {
    const Dsn d(n, dsn_default_x(n));
    const RouteAnalysis ra = analyze::analyze_dsn_routes(d, ChannelScheme::kBasic);
    EXPECT_TRUE(ra.loop_free) << "n = " << n;
    EXPECT_TRUE(ra.all_reachable) << "n = " << n;
    EXPECT_TRUE(ra.routes_ok()) << "n = " << n;
    EXPECT_EQ(ra.pairs, static_cast<std::uint64_t>(n) * (n - 1));
    EXPECT_TRUE(ra.loop_witnesses.empty());
    EXPECT_TRUE(ra.endpoint_witnesses.empty());
  }
}

TEST(RouteAnalysis, HopBoundLawAppliesExactlyWhenPremiseHolds) {
  // x = p - 1 always satisfies x > p - log p for p >= 2, so the Fact 2 /
  // Theorem 2 bound 3p + r applies — and every route must respect it.
  const Dsn in_premise(256, dsn_default_x(256));
  const RouteAnalysis ra = analyze::analyze_dsn_routes(in_premise, ChannelScheme::kBasic);
  EXPECT_EQ(ra.hop_bound, 3 * in_premise.p() + in_premise.r());
  EXPECT_TRUE(ra.within_hop_bound);
  EXPECT_LE(ra.max_hops, ra.hop_bound);
  EXPECT_FALSE(ra.hop_bound_law.empty());

  // x = 2 at n = 256 (p = 8, log p = 3) fails the premise: no analytic bound,
  // the check passes vacuously, and max_hops is free to exceed 3p + r.
  const Dsn out_of_premise(256, 2);
  const RouteAnalysis rb = analyze::analyze_dsn_routes(out_of_premise, ChannelScheme::kBasic);
  EXPECT_EQ(rb.hop_bound, 0u);
  EXPECT_TRUE(rb.within_hop_bound);
}

TEST(RouteAnalysis, ExtendedSchemeProvenAcyclicBasicRefuted) {
  // Theorem 3: the Up/Main/Finish/Extra channel classes break every cycle.
  const Dsn d(128, dsn_default_x(128));
  const RouteAnalysis ext = analyze::analyze_dsn_routes(d, ChannelScheme::kExtended);
  EXPECT_TRUE(ext.cdg_acyclic);
  EXPECT_TRUE(ext.cdg_cycle.empty());
  EXPECT_GT(ext.cdg_channels, 0u);
  EXPECT_GT(ext.cdg_dependencies, 0u);

  // Negative control: one unprotected class on the same routes is cyclic.
  const RouteAnalysis basic = analyze::analyze_dsn_routes(Dsn(128, 2), ChannelScheme::kBasic);
  EXPECT_FALSE(basic.cdg_acyclic);
  ASSERT_GE(basic.cdg_cycle.size(), 2u);
}

TEST(RouteAnalysis, CycleWitnessIsARealCdgCycle) {
  // Every consecutive pair of the reported minimal cycle — including the
  // closing edge — must be a dependency of the independently built CDG.
  const Dsn d(128, 2);
  const RouteAnalysis ra = analyze::analyze_dsn_routes(d, ChannelScheme::kBasic);
  ASSERT_FALSE(ra.cdg_cycle.empty());
  const ChannelDependencyGraph cdg = build_dsn_cdg(d, /*extended=*/false);
  for (std::size_t i = 0; i < ra.cdg_cycle.size(); ++i) {
    const Channel& a = ra.cdg_cycle[i];
    const Channel& b = ra.cdg_cycle[(i + 1) % ra.cdg_cycle.size()];
    EXPECT_TRUE(cdg.has_dependency(a, b))
        << "missing dependency at cycle position " << i;
  }
}

TEST(RouteAnalysis, DsnDRoutesProvenAndAcyclic) {
  const DsnD dd(100, 2);
  const RouteAnalysis ra = analyze::analyze_dsn_d_routes(dd);
  EXPECT_TRUE(ra.routes_ok());
  EXPECT_TRUE(ra.cdg_acyclic);
  EXPECT_EQ(ra.family, RoutingFamily::kDsnD);
}

TEST(RouteAnalysis, TopologyEntryPointsCoverEveryFamily) {
  const struct {
    const char* name;
    std::uint32_t n;
  } cases[] = {{"dsn-e", 64}, {"dsn-bidir", 64}, {"torus", 64}, {"kleinberg", 64}};
  for (const auto& c : cases) {
    const Topology topo = make_topology_by_name(c.name, c.n, 7);
    const RoutingFamily family = analyze::default_family(topo.kind);
    const RouteAnalysis ra = analyze::analyze_topology_routes(topo, family);
    EXPECT_TRUE(ra.loop_free) << c.name;
    EXPECT_TRUE(ra.all_reachable) << c.name;
    EXPECT_EQ(ra.n, c.n) << c.name;
  }
  // up*/down* applies to anything connected.
  const Topology rnd = make_topology_by_name("random-regular", 48, 3);
  const RouteAnalysis ud = analyze::analyze_topology_routes(rnd, RoutingFamily::kUpDown);
  EXPECT_TRUE(ud.loop_free);
  EXPECT_TRUE(ud.cdg_acyclic);  // classic up*/down* result
}

// --------------------------------------------------------------------------
// Refutation witnesses on injected defects.
// --------------------------------------------------------------------------

/// Write `path` into the analyzer's route buffer as a single-class route.
void set_path(Route& out, NodeId s, NodeId t, const std::vector<NodeId>& path) {
  out.reset(s, t);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    out.hops.push_back({path[i], path[i + 1], RoutePhase::kMain, HopKind::kSucc});
  }
}

/// The complete graph on n nodes: every direct one-hop route runs on a link.
Graph complete_graph(NodeId n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_link(u, v);
  return g;
}

/// Direct one-hop routes, except that the (s, t) route walks `path`.
analyze::RouteFill direct_except(NodeId s, NodeId t, std::vector<NodeId> path) {
  return [s, t, path = std::move(path)](NodeId from, NodeId to, Route& out) {
    set_path(out, from, to, from == s && to == t ? path : std::vector<NodeId>{from, to});
  };
}

void one_class(const Route& r, std::vector<Channel>& out) { dsn_route_channels_basic(r, out); }

TEST(RouteAnalysis, LoopingRouteRefutedWithWitness) {
  // 4-node network where the (0, 2) route bounces 0 -> 1 -> 0 -> ... -> 2.
  const auto route_fn = direct_except(0, 2, {0, 1, 0, 1, 2});
  const RouteAnalysis ra = analyze::analyze_route_function(complete_graph(4), route_fn, one_class);
  EXPECT_FALSE(ra.loop_free);
  EXPECT_FALSE(ra.routes_ok());
  ASSERT_FALSE(ra.loop_witnesses.empty());
  const analyze::RouteWitness& w = ra.loop_witnesses.front();
  EXPECT_EQ(w.src, 0u);
  EXPECT_EQ(w.dst, 2u);
  // The witness path must actually contain a repeated node.
  std::vector<NodeId> sorted = w.path;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_FALSE(w.reason.empty());
}

TEST(RouteAnalysis, WrongEndpointRefutedWithWitness) {
  const auto route_fn = direct_except(1, 3, {1, 2});  // stops short
  const RouteAnalysis ra = analyze::analyze_route_function(complete_graph(4), route_fn, one_class);
  EXPECT_FALSE(ra.all_reachable);
  ASSERT_FALSE(ra.endpoint_witnesses.empty());
  EXPECT_EQ(ra.endpoint_witnesses.front().src, 1u);
  EXPECT_EQ(ra.endpoint_witnesses.front().dst, 3u);
}

TEST(RouteAnalysis, HopBoundViolationRefutedOnlyUnderStrictBound) {
  // Direct routes except (0, 3), which takes a 3-hop detour.
  const auto route_fn = direct_except(0, 3, {0, 1, 2, 3});
  const RouteAnalysis tight =
      analyze::analyze_route_function(complete_graph(4), route_fn, one_class, 2, "test bound");
  EXPECT_FALSE(tight.within_hop_bound);
  ASSERT_FALSE(tight.bound_witnesses.empty());
  EXPECT_EQ(tight.bound_witnesses.front().path.size(), 4u);

  const RouteAnalysis loose =
      analyze::analyze_route_function(complete_graph(4), route_fn, one_class, 3, "test bound");
  EXPECT_TRUE(loose.within_hop_bound);
}

TEST(RouteAnalysis, WitnessCountIsCapped) {
  // Every route of this 8-node network loops once; only max_witnesses are kept.
  const auto route_fn = [](NodeId s, NodeId t, Route& out) { set_path(out, s, t, {s, t, s, t}); };
  RouteAnalysisOptions options;
  options.max_witnesses = 2;
  const RouteAnalysis ra =
      analyze::analyze_route_function(complete_graph(8), route_fn, one_class, 0, {}, options);
  EXPECT_FALSE(ra.loop_free);
  EXPECT_EQ(ra.loop_witnesses.size(), 2u);
}

TEST(RouteAnalysis, ZeroWitnessCapStillRefutes) {
  // A verdict comes from the violations, not from the kept witnesses: each
  // single-defect network refutes exactly its own property at caps 0 and 1,
  // and so does a network where every route loops and overruns the bound.
  const struct {
    const char* defect;
    analyze::RouteFill route_fn;
    std::uint32_t hop_bound;
    bool loop_free, all_reachable, within_hop_bound;
  } cases[] = {
      {"loop", direct_except(0, 2, {0, 1, 0, 2}), 3, false, true, true},
      {"wrong endpoint", direct_except(1, 3, {1, 2}), 3, true, false, true},
      {"hop bound", direct_except(0, 3, {0, 1, 2, 3}), 2, true, true, false},
      {"all routes loop and overrun",
       [](NodeId s, NodeId t, Route& out) { set_path(out, s, t, {s, t, s, t}); }, 1, false,
       true, false},
  };
  for (const auto& c : cases) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
      RouteAnalysisOptions options;
      options.max_witnesses = cap;
      const RouteAnalysis ra = analyze::analyze_route_function(
          complete_graph(8), c.route_fn, one_class, c.hop_bound, "test bound", options);
      SCOPED_TRACE(std::string(c.defect) + ", cap " + std::to_string(cap));
      EXPECT_EQ(ra.loop_free, c.loop_free);
      EXPECT_EQ(ra.all_reachable, c.all_reachable);
      EXPECT_EQ(ra.within_hop_bound, c.within_hop_bound);
      EXPECT_FALSE(ra.routes_ok());
      EXPECT_EQ(ra.loop_witnesses.size(), c.loop_free ? 0 : cap);
      EXPECT_EQ(ra.endpoint_witnesses.size(), c.all_reachable ? 0 : cap);
      EXPECT_EQ(ra.bound_witnesses.size(), c.within_hop_bound ? 0 : cap);
      const Json props = analyze::to_json(ra).at("properties");
      EXPECT_EQ(props.at("loop_free").as_bool(), c.loop_free);
      EXPECT_EQ(props.at("all_reachable").as_bool(), c.all_reachable);
      EXPECT_EQ(props.at("within_hop_bound").as_bool(), c.within_hop_bound);
    }
  }
}

/// Clockwise ring walks on an n-node ring, except that the (s, t) route is
/// `defect` (hops and phases given explicitly).
analyze::RouteFill ring_walks_except(NodeId n, NodeId s, NodeId t, std::vector<RouteHop> defect) {
  return [n, s, t, defect = std::move(defect)](NodeId from, NodeId to, Route& out) {
    out.reset(from, to);
    if (from == s && to == t) {
      out.hops = defect;
      return;
    }
    for (NodeId u = from; u != to; u = (u + 1) % n)
      out.hops.push_back({u, (u + 1) % n, RoutePhase::kMain, HopKind::kSucc});
  };
}

TEST(RouteAnalysis, NonLinkHopAndPhaseRegressionRefutedOnRing) {
  // 8-node ring. The (0, 4) route jumps 0 -> 4, which is no ring link; the
  // (1, 5) route walks the ring but drops from MAIN back to PRE-WORK at node
  // 3. Each defect refutes exactly its own property, with evidence, and
  // still refutes when no witness is kept.
  const Topology ring = make_ring(8);
  const auto non_link = ring_walks_except(8, 0, 4, {{0, 4, RoutePhase::kMain, HopKind::kShortcut}});
  const auto regression = ring_walks_except(
      8, 1, 5,
      {{1, 2, RoutePhase::kMain, HopKind::kSucc},
       {2, 3, RoutePhase::kMain, HopKind::kSucc},
       {3, 4, RoutePhase::kPreWork, HopKind::kSucc},
       {4, 5, RoutePhase::kFinish, HopKind::kSucc}});
  for (const std::size_t cap : {std::size_t{4}, std::size_t{0}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    RouteAnalysisOptions options;
    options.max_witnesses = cap;

    const RouteAnalysis a =
        analyze::analyze_route_function(ring.graph, non_link, one_class, 0, {}, options);
    EXPECT_FALSE(a.hops_on_links);
    EXPECT_TRUE(a.phases_ordered);
    EXPECT_TRUE(a.loop_free);
    EXPECT_TRUE(a.all_reachable);
    EXPECT_FALSE(a.routes_ok());
    EXPECT_FALSE(analyze::to_json(a).at("properties").at("hops_on_links").as_bool());
    EXPECT_TRUE(analyze::to_json(a).at("properties").at("phases_ordered").as_bool());
    if (cap == 0) {
      EXPECT_TRUE(a.non_link_channels.empty());
    } else {
      // The witness names the channel of the offending hop, once.
      ASSERT_EQ(a.non_link_channels.size(), 1u);
      EXPECT_EQ(a.non_link_channels.front(), (Channel{0, 4, 0}));
      EXPECT_EQ(analyze::to_json(a).at("witnesses").at("non_links").size(), 1u);
    }

    const RouteAnalysis b =
        analyze::analyze_route_function(ring.graph, regression, one_class, 0, {}, options);
    EXPECT_FALSE(b.phases_ordered);
    EXPECT_TRUE(b.hops_on_links);
    EXPECT_TRUE(b.loop_free);
    EXPECT_TRUE(b.all_reachable);
    EXPECT_FALSE(b.routes_ok());
    EXPECT_FALSE(analyze::to_json(b).at("properties").at("phases_ordered").as_bool());
    if (cap == 0) {
      EXPECT_TRUE(b.phase_witnesses.empty());
    } else {
      ASSERT_EQ(b.phase_witnesses.size(), 1u);
      const analyze::RouteWitness& w = b.phase_witnesses.front();
      EXPECT_EQ(w.src, 1u);
      EXPECT_EQ(w.dst, 5u);
      EXPECT_EQ(w.path, (std::vector<NodeId>{1, 2, 3, 4, 5}));
      EXPECT_NE(w.reason.find("from MAIN to PRE-WORK at node 3"), std::string::npos)
          << w.reason;
    }
  }
}

TEST(RouteAnalysis, SourceListRoutesEachSourceToEveryDestination) {
  // A source list restricts the sweep to those sources, each routed to every
  // destination in order: the verdicts and counts are those of the full
  // sweep's routes from the same sources.
  const Topology topo = make_dsn(64, 5);
  const std::vector<NodeId> sources = {0, 17, 63};
  const RouteAnalysis some =
      analyze::analyze_topology_routes(topo, RoutingFamily::kDsn, {}, sources);
  EXPECT_EQ(some.pairs, 3u * 63u);
  EXPECT_TRUE(some.routes_ok());
  const Dsn d(64, 5);
  const DsnRouter router(d);
  std::uint64_t hops = 0;
  for (const NodeId s : sources)
    for (NodeId t = 0; t < 64; ++t)
      if (t != s) hops += router.route(s, t).length();
  EXPECT_EQ(some.load.total, hops);

  const RouteAnalysis all = analyze::analyze_topology_routes(topo, RoutingFamily::kDsn);
  EXPECT_EQ(all.pairs, 64u * 63u);
  const std::vector<NodeId> out_of_range = {64};
  EXPECT_THROW(analyze::analyze_topology_routes(topo, RoutingFamily::kDsn, {}, out_of_range),
               PreconditionError);
}

// --------------------------------------------------------------------------
// Static channel load.
// --------------------------------------------------------------------------

TEST(RouteAnalysis, LoadStatisticsMatchIndependentCdgUseCounts) {
  const Dsn d(100, dsn_default_x(100));
  const RouteAnalysis ra = analyze::analyze_dsn_routes(d, ChannelScheme::kExtended);
  const ChannelDependencyGraph cdg = build_dsn_cdg(d, /*extended=*/true);

  const auto& counts = cdg.use_counts();
  ASSERT_EQ(ra.load.channels, counts.size());
  const std::uint64_t total = std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  const std::uint64_t max_load = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(ra.load.total, total);
  EXPECT_EQ(ra.load.max_load, max_load);
  EXPECT_NEAR(ra.load.mean_load, static_cast<double>(total) / counts.size(), 1e-9);
  EXPECT_NEAR(ra.load.max_normalized, static_cast<double>(max_load) / (d.n() - 1), 1e-12);
  EXPECT_NEAR(ra.load.throughput_bound, 1.0 / ra.load.max_normalized, 1e-12);
  EXPECT_GE(ra.load.gini, 0.0);
  EXPECT_LT(ra.load.gini, 1.0);
  // Total load over all channels is exactly the total hop count.
  EXPECT_NEAR(ra.avg_hops, static_cast<double>(total) / ra.pairs, 1e-9);
}

TEST(RouteAnalysis, UniformRingLoadHasZeroGini) {
  // Unidirectional ring: every route walks clockwise, so by symmetry every
  // ring channel carries an identical load and the Gini index is exactly 0.
  const auto route_fn = [](NodeId s, NodeId t, Route& out) {
    std::vector<NodeId> path{s};
    for (NodeId u = s; u != t; u = (u + 1) % 16) path.push_back((u + 1) % 16);
    set_path(out, s, t, path);
  };
  const RouteAnalysis ra =
      analyze::analyze_route_function(make_ring(16).graph, route_fn, one_class);
  EXPECT_EQ(ra.load.channels, 16u);
  EXPECT_NEAR(ra.load.gini, 0.0, 1e-12);
  EXPECT_EQ(ra.load.max_load, ra.load.total / 16);
}

// --------------------------------------------------------------------------
// Determinism and rendering.
// --------------------------------------------------------------------------

TEST(RouteAnalysis, AnalysisIsDeterministicAcrossRuns) {
  const Dsn d(128, 2);
  const RouteAnalysis a = analyze::analyze_dsn_routes(d, ChannelScheme::kBasic);
  const RouteAnalysis b = analyze::analyze_dsn_routes(d, ChannelScheme::kBasic);
  EXPECT_EQ(analyze::to_json(a).dump(), analyze::to_json(b).dump());
}

/// 64-bit FNV-1a of a report's compact JSON, as hex.
std::string report_digest(const RouteAnalysis& ra) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : analyze::to_json(ra).dump()) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(RouteAnalysis, GoldenReports) {
  // Pinned report bytes for every routing family. The digests hold at any
  // DSN_THREADS; a change here means the analyzer's output changed. Each
  // report carries the hops_on_links / phases_ordered properties and their
  // (empty) phase_order / non_links witness lists.
  const auto topology_digest = [](const char* name, std::uint32_t n, std::uint64_t seed) {
    const Topology topo = make_topology_by_name(name, n, seed);
    return report_digest(
        analyze::analyze_topology_routes(topo, analyze::default_family(topo.kind)));
  };
  EXPECT_EQ(topology_digest("dsn-e", 512, 1), "9ed7521d166995e8");
  EXPECT_EQ(report_digest(analyze::analyze_dsn_routes(Dsn(128, 2), ChannelScheme::kBasic)),
            "d023b814f90f49d5");
  EXPECT_EQ(report_digest(analyze::analyze_dsn_routes(Dsn(256, dsn_default_x(256)),
                                                      ChannelScheme::kExtended)),
            "92b16d1cad55d2bb");
  EXPECT_EQ(report_digest(analyze::analyze_dsn_d_routes(DsnD(100, 2))), "c8a8b499672188c3");
  EXPECT_EQ(topology_digest("torus", 64, 7), "4f38206d409506d5");
  EXPECT_EQ(topology_digest("kleinberg", 64, 7), "03b066f986a120b4");
  EXPECT_EQ(topology_digest("random-regular", 48, 3), "052ccae2f240e420");
}

TEST(RouteAnalysis, RenderedWitnessNamesNodesClassesAndLinks) {
  const Dsn d(64, 2);
  const RouteAnalysis ra = analyze::analyze_dsn_routes(d, ChannelScheme::kBasic);
  ASSERT_FALSE(ra.cdg_cycle.empty());
  const std::string text =
      analyze::render_cycle_witness(d.topology(), ra.cdg_cycle, ChannelScheme::kBasic);
  // Every cycle channel appears with its endpoints and a link reference.
  for (const Channel& c : ra.cdg_cycle) {
    const std::string arrow = std::to_string(c.from) + "->" + std::to_string(c.to);
    EXPECT_NE(text.find(arrow), std::string::npos) << text;
  }
  EXPECT_NE(text.find("link#"), std::string::npos) << text;
}

TEST(RouteAnalysis, JsonReportRoundTripsAndExposesProperties) {
  const Dsn d(64, dsn_default_x(64));
  const RouteAnalysis ra = analyze::analyze_dsn_routes(d, ChannelScheme::kExtended);
  const Json doc = analyze::to_json(ra);
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(doc.dump(), reparsed.dump());
  EXPECT_TRUE(doc.at("properties").at("loop_free").as_bool());
  EXPECT_TRUE(doc.at("properties").at("cdg_acyclic").as_bool());
  EXPECT_EQ(doc.at("n").as_int(), 64);
}

}  // namespace
}  // namespace dsn
