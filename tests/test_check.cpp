// Property tests for the dsn::check invariant battery: every built-in
// generator must validate clean across an n sweep, and injected corruptions
// (dropped shortcuts, broken symmetry, miswired link ids, ...) must each be
// caught with the exact Violation kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/check/route_verdicts.hpp"
#include "dsn/check/validator.hpp"
#include "dsn/common/error.hpp"
#include "dsn/common/math.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/generators.hpp"
#include "dsn/topology/hooks.hpp"
#include "dsn/topology/io.hpp"

// Install the validating generation hook for the whole test binary: running
// any suite with DSN_VALIDATE=1 (as ctest does) structurally revalidates
// every topology every test generates, turning the entire test corpus into
// checker input. The hook is inert when the variable is unset.
[[maybe_unused]] const dsn::TopologyGeneratedHook g_previous_hook =
    dsn::check::install_generation_hook();

namespace {

using dsn::LinkId;
using dsn::LinkRole;
using dsn::NodeId;
using dsn::Topology;
using dsn::check::ValidationReport;
using dsn::check::ViolationKind;

/// Rebuild `src` with link `id` either dropped (new_v == kInvalidNode) or
/// rewired to (u, new_v). The public Graph API cannot mutate links in place,
/// so corruption means replaying the insertion sequence with one edit —
/// which also preserves insertion order, the owner convention, and roles.
Topology rebuild_with_edit(const Topology& src, LinkId edit_id, NodeId new_v) {
  Topology out;
  out.name = src.name;
  out.kind = src.kind;
  out.dims = src.dims;
  out.graph = dsn::Graph(src.num_nodes());
  for (LinkId id = 0; id < src.graph.num_links(); ++id) {
    auto [u, v] = src.graph.link_endpoints(id);
    if (id == edit_id) {
      if (new_v == dsn::kInvalidNode) continue;  // drop the link entirely
      v = new_v;
    }
    out.graph.add_link(u, v);
    out.link_roles.push_back(src.link_roles[id]);
  }
  return out;
}

/// First shortcut link that did not collapse onto the ring.
LinkId find_real_shortcut(const Topology& topo) {
  const NodeId n = topo.num_nodes();
  for (LinkId id = 0; id < topo.graph.num_links(); ++id) {
    if (topo.link_roles[id] != LinkRole::kShortcut) continue;
    const auto [u, v] = topo.graph.link_endpoints(id);
    const NodeId cw = (u + 1) % n;
    const NodeId ccw = (u + n - 1) % n;
    if (v != cw && v != ccw) return id;
  }
  return dsn::kInvalidLink;
}

TEST(CheckClean, AllGeneratorsAcrossSizes) {
  // Includes non-power-of-two sizes; families that cannot realize a size
  // (kleinberg needs square n) throw PreconditionError and are skipped.
  const std::vector<std::string> names = {
      "ring", "torus",  "torus3d", "dln",   "random", "kleinberg",
      "random-regular", "dsn",     "dsn-d", "dsn-e",  "dsn-bidir"};
  for (const std::uint32_t n : {48u, 64u, 81u, 100u, 128u}) {
    for (const std::string& name : names) {
      Topology topo;
      try {
        topo = dsn::make_topology_by_name(name, n, /*seed=*/7);
      } catch (const dsn::PreconditionError&) {
        continue;
      }
      const ValidationReport report = dsn::check::validate_topology(topo);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(CheckClean, DsnFullXSweep) {
  for (const std::uint32_t n : {48u, 96u}) {
    const std::uint32_t p = dsn::ilog2_ceil(n);
    for (std::uint32_t x = 1; x + 1 <= p; ++x) {
      const dsn::Dsn dsn_topo(n, x);
      const ValidationReport report = dsn::check::validate_topology(dsn_topo.topology());
      EXPECT_TRUE(report.ok()) << "x=" << x << "\n" << report.summary();
    }
  }
}

TEST(CheckClean, WattsStrogatzAndFlex) {
  const ValidationReport ws =
      dsn::check::validate_topology(dsn::make_watts_strogatz(100, 4, 0.1, 3));
  EXPECT_TRUE(ws.ok()) << ws.summary();
  const dsn::FlexDsn flex(64, 3, {0, 10, 20});
  const ValidationReport fr = dsn::check::validate_topology(flex.topology());
  EXPECT_TRUE(fr.ok()) << fr.summary();
}

TEST(CheckCorruption, DroppedShortcutIsCaught) {
  const Topology topo = dsn::make_dsn(64, 5);
  const LinkId victim = find_real_shortcut(topo);
  ASSERT_NE(victim, dsn::kInvalidLink);
  const Topology bad = rebuild_with_edit(topo, victim, dsn::kInvalidNode);
  const ValidationReport report =
      dsn::check::validate_topology(bad, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kShortcutMissing)) << report.summary();
}

TEST(CheckCorruption, MiswiredShortcutTargetIsCaught) {
  const Topology topo = dsn::make_dsn(64, 5);
  const LinkId victim = find_real_shortcut(topo);
  ASSERT_NE(victim, dsn::kInvalidLink);
  const auto [u, v] = topo.graph.link_endpoints(victim);
  // Shift the target one node clockwise: still a plausible-looking long link,
  // but it violates the nearest-lawful-target rule.
  NodeId wrong = (v + 1) % topo.num_nodes();
  if (wrong == u) wrong = (wrong + 1) % topo.num_nodes();
  const Topology bad = rebuild_with_edit(topo, victim, wrong);
  const ValidationReport report =
      dsn::check::validate_topology(bad, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kShortcutWrongTarget)) << report.summary();
}

TEST(CheckCorruption, ShortcutOnHighLevelNodeIsUnexpected) {
  Topology topo = dsn::make_dsn(64, 2);  // levels 3..p own no shortcuts
  const std::uint32_t p = dsn::ilog2_ceil(64);
  // Find a node of level > x and give it an illegal shortcut.
  NodeId owner = dsn::kInvalidNode;
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    if (i % p + 1 > 2) {
      owner = i;
      break;
    }
  }
  ASSERT_NE(owner, dsn::kInvalidNode);
  const NodeId target = (owner + 17) % topo.num_nodes();
  topo.graph.add_link(owner, target);
  topo.link_roles.push_back(LinkRole::kShortcut);
  const ValidationReport report =
      dsn::check::validate_topology(topo, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kShortcutUnexpected)) << report.summary();
}

TEST(CheckCorruption, BrokenRingIsCaught) {
  const Topology topo = dsn::make_dsn(64, 5);
  LinkId ring_link = dsn::kInvalidLink;
  for (LinkId id = 0; id < topo.graph.num_links(); ++id) {
    if (topo.link_roles[id] == LinkRole::kRing) {
      ring_link = id;
      break;
    }
  }
  ASSERT_NE(ring_link, dsn::kInvalidLink);
  const Topology bad = rebuild_with_edit(topo, ring_link, dsn::kInvalidNode);
  const ValidationReport report =
      dsn::check::validate_topology(bad, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kRingIncomplete)) << report.summary();
}

TEST(CheckCorruption, DisconnectedGraphIsCaught) {
  // A bare ring with two cuts falls into two components.
  Topology ring = dsn::make_ring(16);
  Topology bad = rebuild_with_edit(ring, 3, dsn::kInvalidNode);
  // Link ids shifted down by one past the dropped link; drop what was link 10.
  bad = rebuild_with_edit(bad, 9, dsn::kInvalidNode);
  const ValidationReport report =
      dsn::check::validate_topology(bad, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kDisconnected)) << report.summary();
  EXPECT_TRUE(report.has(ViolationKind::kRingIncomplete)) << report.summary();
}

TEST(CheckCorruption, RoleCountMismatchIsCaught) {
  Topology topo = dsn::make_dsn(32, 3);
  topo.link_roles.pop_back();
  const ValidationReport report =
      dsn::check::validate_topology(topo, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kLinkRoleCount)) << report.summary();
}

TEST(CheckCorruption, IllegalRoleForKindIsCaught) {
  Topology ring = dsn::make_ring(12);
  ring.link_roles[4] = LinkRole::kDLocal;  // DSN-D-only role on a plain ring
  const ValidationReport report =
      dsn::check::validate_topology(ring, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kLinkRoleInvalid)) << report.summary();
}

TEST(CheckCorruption, DegreeBoundViolationIsCaught) {
  // A chord on a plain ring pushes two nodes to degree 3 (rings are exactly 2).
  Topology ring = dsn::make_ring(12);
  ring.graph.add_link(0, 6);
  ring.link_roles.push_back(LinkRole::kRing);
  const ValidationReport report =
      dsn::check::validate_topology(ring, dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kDegreeBound)) << report.summary();
}

TEST(CheckCorruption, EdgeListTamperingIsCaught) {
  // Same dropped-shortcut defect, but injected through the io layer the way a
  // hand-edited interchange file would arrive.
  const Topology topo = dsn::make_dsn(64, 5);
  const LinkId victim = find_real_shortcut(topo);
  ASSERT_NE(victim, dsn::kInvalidLink);
  const auto [u, v] = topo.graph.link_endpoints(victim);
  const std::string needle =
      std::to_string(u) + " " + std::to_string(v) + " shortcut";
  std::istringstream in(dsn::to_edge_list(topo));
  std::string text, line;
  bool removed = false;
  while (std::getline(in, line)) {
    if (!removed && line == needle) {
      removed = true;
      continue;
    }
    text += line;
    text += '\n';
  }
  ASSERT_TRUE(removed) << "edge-list line not found: " << needle;
  const ValidationReport report = dsn::check::validate_topology(
      dsn::parse_edge_list(text), dsn::check::structural_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kShortcutMissing)) << report.summary();
}

// --- Raw-representation corruptions (unreachable through the Graph API) ---

TEST(CheckRaw, AsymmetricAdjacencyIsCaught) {
  std::vector<std::pair<NodeId, NodeId>> links = {{0, 1}, {1, 2}};
  std::vector<std::vector<dsn::AdjHalf>> adjacency(3);
  adjacency[0] = {{1, 0}};
  adjacency[1] = {{0, 0}, {2, 1}};
  // Node 2's half of link 1 is missing: adjacency is asymmetric.
  ValidationReport report;
  dsn::check::check_raw_graph(3, links, adjacency, report);
  EXPECT_TRUE(report.has(ViolationKind::kAdjacencySymmetry)) << report.summary();
}

TEST(CheckRaw, MiswiredLinkIdIsCaught) {
  std::vector<std::pair<NodeId, NodeId>> links = {{0, 1}, {1, 2}};
  std::vector<std::vector<dsn::AdjHalf>> adjacency(3);
  adjacency[0] = {{1, 0}};
  adjacency[1] = {{0, 0}, {2, 1}};
  adjacency[2] = {{1, 0}};  // wrong link id: 0 instead of 1
  ValidationReport report;
  dsn::check::check_raw_graph(3, links, adjacency, report);
  EXPECT_TRUE(report.has(ViolationKind::kLinkIdBijection)) << report.summary();
}

TEST(CheckRaw, SelfLoopAndRangeAreCaught) {
  std::vector<std::pair<NodeId, NodeId>> links = {{0, 0}, {1, 9}};
  std::vector<std::vector<dsn::AdjHalf>> adjacency(3);
  ValidationReport report;
  dsn::check::check_raw_graph(3, links, adjacency, report);
  EXPECT_TRUE(report.has(ViolationKind::kSelfLoop)) << report.summary();
  EXPECT_TRUE(report.has(ViolationKind::kNodeIdRange)) << report.summary();
}

TEST(CheckRaw, CleanGraphHasNoViolations) {
  dsn::Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 0);
  std::vector<std::pair<NodeId, NodeId>> links;
  for (LinkId id = 0; id < g.num_links(); ++id) links.push_back(g.link_endpoints(id));
  std::vector<std::vector<dsn::AdjHalf>> adjacency(4);
  for (NodeId u = 0; u < 4; ++u) {
    const auto span = g.neighbors(u);
    adjacency[u].assign(span.begin(), span.end());
  }
  ValidationReport report;
  dsn::check::check_raw_graph(4, links, adjacency, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- DSN_VALIDATE generation hook ---

TEST(CheckHook, ValidatesGeneratedTopologiesWhenEnabled) {
  const auto previous = dsn::check::install_generation_hook();
  ::setenv("DSN_VALIDATE", "1", 1);
  // Every generator fires the hook; correct topologies must pass silently.
  EXPECT_NO_THROW(dsn::make_dsn(48, 3));
  EXPECT_NO_THROW(dsn::make_topology_by_name("dsn-e", 64));
  EXPECT_NO_THROW(dsn::make_topology_by_name("torus", 36));
  ::setenv("DSN_VALIDATE", "0", 1);
  EXPECT_NO_THROW(dsn::make_ring(8));
  ::unsetenv("DSN_VALIDATE");
  dsn::set_topology_generated_hook(previous);
}

// --- route checks: the analyzer's verdicts ---

TEST(CheckRoutes, ValidatorReportsLoopsExactlyWhenAnalyzerRefutes) {
  // The validator reads its route verdicts from the analyzer: it reports
  // route-loop exactly where the analyzer refutes loop freedom of the
  // native routing family. DSN-9-730 and DSN-E-1024 have routes that revisit
  // a node (a MAIN shortcut overshoots and FINISH walks back over PRE-WORK's
  // nodes); the other three are loop-free.
  struct Case {
    Topology topo;
    bool loops;
  };
  const std::vector<Case> cases = {
      {dsn::make_dsn(730, 9), true},
      {dsn::DsnE(1024).topology(), true},
      {dsn::make_dsn(100, 6), false},
      {dsn::make_topology_by_name("torus", 64), false},
      {dsn::DsnD(100, 2).topology(), false},
  };
  for (const Case& c : cases) {
    const dsn::analyze::RouteAnalysis ra = dsn::analyze::analyze_topology_routes(
        c.topo, dsn::analyze::default_family(c.topo.kind));
    EXPECT_EQ(ra.loop_free, !c.loops) << c.topo.name;
    const ValidationReport report = dsn::check::validate_topology(c.topo);
    EXPECT_EQ(report.has(ViolationKind::kRouteLoop), !ra.loop_free)
        << c.topo.name << "\n" << report.summary();
  }
}

TEST(CheckRoutes, ConverterMapsEachRefutedVerdict) {
  // One violation per kept witness, one without a witness when none was
  // kept, and only the selected verdicts.
  const Topology ring = dsn::make_ring(8);
  dsn::analyze::RouteAnalysis ra;
  ra.loop_free = false;
  ra.loop_witnesses = {{0, 2, {0, 1, 0, 1, 2}, "route revisits node 0"}};
  ra.hops_on_links = false;
  ra.non_link_channels = {{0, 4, 0}};
  ra.phases_ordered = false;  // refuted, no witness kept
  ra.within_hop_bound = false;
  ra.bound_witnesses = {{1, 5, {1, 2, 3, 4, 5}, "4 hops exceed the analytic bound of 3"}};
  ra.fallback_routes = 2;
  ra.cdg_acyclic = false;
  ra.cdg_cycle = {{0, 1, 0}, {1, 0, 0}};
  ra.load.max_normalized = 2.0;
  ra.load.max_channel = {0, 1, 0};
  const auto kinds = [&](const dsn::check::VerdictSelection& select) {
    std::vector<ViolationKind> out;
    for (const dsn::check::Violation& v : dsn::check::route_violations(ring, ra, select))
      out.push_back(v.kind);
    return out;
  };
  dsn::check::VerdictSelection all;
  all.max_normalized_load = 1.0;
  EXPECT_EQ(kinds(all), (std::vector<ViolationKind>{
                            ViolationKind::kRouteLoop, ViolationKind::kRouteNonNeighbor,
                            ViolationKind::kRoutePhaseOrder, ViolationKind::kRouteBoundExceeded,
                            ViolationKind::kRouteFallback, ViolationKind::kCdgCyclic,
                            ViolationKind::kChannelOverload}));
  dsn::check::VerdictSelection lenient;
  lenient.strict = false;
  lenient.cdg = false;
  EXPECT_EQ(kinds(lenient),
            (std::vector<ViolationKind>{ViolationKind::kRouteLoop,
                                        ViolationKind::kRouteNonNeighbor,
                                        ViolationKind::kRoutePhaseOrder}));
  const auto messages = dsn::check::route_violations(ring, ra, lenient);
  EXPECT_NE(messages[1].message.find("0->4 [c0] (no physical link)"), std::string::npos)
      << messages[1].message;
}

TEST(CheckLoad, CleanDsnPassesAndReportsLoadNote) {
  const ValidationReport report =
      dsn::check::validate_topology(dsn::make_topology_by_name("dsn-e", 64));
  EXPECT_TRUE(report.ok()) << report.summary();
  // Every all-pairs route check attaches its static channel load as a note,
  // even when nothing is violated.
  bool saw_load_note = false;
  for (const std::string& note : report.notes) {
    if (note.find("static channel load") != std::string::npos) saw_load_note = true;
  }
  EXPECT_TRUE(saw_load_note) << report.summary();
}

TEST(CheckLoad, OverloadThresholdFlagsChannelOverload) {
  dsn::check::ValidatorOptions options;
  options.max_normalized_load = 1e-6;  // absurdly tight: everything overloads
  const ValidationReport report =
      dsn::check::validate_topology(dsn::make_topology_by_name("dsn-e", 64), options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(ViolationKind::kChannelOverload)) << report.summary();
}

TEST(CheckLoad, NoteOnlyFromAllPairsRouteChecks) {
  // Structural runs route nothing, and a sampled run's channel counts are
  // not the all-pairs load, so neither reports one.
  dsn::check::ValidatorOptions sampled;
  sampled.max_cdg_nodes = 32;
  sampled.max_normalized_load = 1e-6;  // not judged on a sample
  const Topology topo = dsn::make_topology_by_name("dsn", 64);
  for (const ValidationReport& report :
       {dsn::check::validate_topology(topo, dsn::check::structural_options()),
        dsn::check::validate_topology(topo, sampled)}) {
    EXPECT_TRUE(report.ok()) << report.summary();
    for (const std::string& note : report.notes) {
      EXPECT_EQ(note.find("static channel load"), std::string::npos) << note;
    }
  }
}

// --- route-check source sampling ---

TEST(CheckSampling, ExhaustiveBelowThreshold) {
  const auto sources = dsn::check::routing_sources(dsn::make_dsn(64, 5), /*all_pairs_nodes=*/64);
  ASSERT_EQ(sources.size(), 64u);
  for (NodeId i = 0; i < 64; ++i) EXPECT_EQ(sources[i], i);
}

TEST(CheckSampling, SampleAlwaysContainsExtremePair) {
  // The regression this guards: a strided sample could miss node n-1
  // entirely, so the worst-case pair (0, n-1) — the longest FINISH walk —
  // was never exercised. Every source routes to every destination, so 0 and
  // n-1 among the sources cover both (0, n-1) and (n-1, 0).
  for (const NodeId n : {1025u, 2000u, 4096u}) {
    const auto sources = dsn::check::routing_sources(dsn::make_ring(n), /*all_pairs_nodes=*/1024);
    ASSERT_LT(sources.size(), n);
    EXPECT_EQ(sources.front(), 0u) << "n = " << n;
    EXPECT_EQ(sources.back(), n - 1) << "n = " << n;
  }
}

TEST(CheckSampling, ExtraNodesAreIncludedAndOutOfRangeIgnored) {
  // Above the threshold a DSN kind's sample also holds the DSN routing's
  // worst-case sources: both ends of the Extra-channel window [0, 2p], a
  // full super-node crossing and the last super node.
  for (const Topology& topo : {dsn::make_dsn(2048, 7), dsn::DsnE(2000).topology(),
                               dsn::make_topology_by_name("dsn-bidir", 4096),
                               dsn::DsnD(1500, 2).topology()}) {
    const NodeId n = topo.num_nodes();
    const NodeId p = dsn::ilog2_ceil(n);
    const auto sources = dsn::check::routing_sources(topo, /*all_pairs_nodes=*/1024);
    ASSERT_LT(sources.size(), n) << topo.name;
    for (const NodeId e : {NodeId{0}, NodeId{1}, p, 2 * p - 1, 2 * p, 2 * p + 1, n - p, n - 1}) {
      EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), e))
          << topo.name << " misses source " << e;
    }
  }
  // On DSN-3-9 (p = 4) the worst-case node 2p + 1 = 9 does not exist; a
  // sampled sweep keeps every real node and nothing else.
  const auto small = dsn::check::routing_sources(dsn::make_dsn(9, 3), /*all_pairs_nodes=*/0);
  EXPECT_EQ(small, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(CheckSampling, PairsAreSortedAndUnique) {
  // Sources are sorted and unique, and each routes to every destination in
  // order, so the swept (s, t) pairs are sorted and unique too.
  const auto sources = dsn::check::routing_sources(dsn::make_dsn(2048, 10), 1024);
  for (std::size_t i = 1; i < sources.size(); ++i) EXPECT_LT(sources[i - 1], sources[i]);
  for (const NodeId s : sources) EXPECT_LT(s, 2048u);
}

TEST(CheckHook, InstallReturnsPreviousHook) {
  const auto before = dsn::topology_generated_hook();
  const auto previous = dsn::check::install_generation_hook();
  EXPECT_EQ(previous, before);
  EXPECT_NE(dsn::topology_generated_hook(), nullptr);
  dsn::set_topology_generated_hook(previous);
  EXPECT_EQ(dsn::topology_generated_hook(), before);
}

}  // namespace
