// Tests for the degree-6 bidirectional DSN (§VI-B remark) and the dateline
// dimension-order simulator policy.
#include <gtest/gtest.h>

#include "dsn/analysis/factory.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

// --------------------------------------------------------------------------
// Degree-6 DSN.
// --------------------------------------------------------------------------

TEST(DsnBidir, DegreeAroundSix) {
  const Topology t = make_dsn_bidir(512);
  const auto deg = compute_degree_stats(t.graph);
  EXPECT_GT(deg.avg_degree, 5.0);
  EXPECT_LE(deg.avg_degree, 6.0 + 1e-9);
  EXPECT_LE(deg.max_degree, 8u);  // 2 ring + up to 2 out + up to 4 in
}

TEST(DsnBidir, StrictlyImprovesOnBasicDsn) {
  const Topology bidir = make_dsn_bidir(512);
  const Topology basic = make_topology_by_name("dsn", 512);
  const auto sb = compute_path_stats(bidir.graph);
  const auto sp = compute_path_stats(basic.graph);
  EXPECT_LE(sb.diameter, sp.diameter);
  EXPECT_LT(sb.avg_shortest_path, sp.avg_shortest_path);
}

TEST(DsnBidir, MirrorShortcutsExist) {
  const std::uint32_t n = 128;
  const Dsn base(n, dsn_default_x(n));
  const Topology bidir = make_dsn_bidir(n);
  for (NodeId a = 0; a < n; ++a) {
    const NodeId b = base.shortcut_target(a);
    if (b == kInvalidNode) continue;
    EXPECT_TRUE(bidir.graph.has_link(n - 1 - a, n - 1 - b)) << a;
  }
}

class Degree6CableTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Degree6CableTest, CableComparableTo3dTorus) {
  // §VI-B: "our DSN with degree 6 surprisingly has shorter average cable
  // length than 3-D torus in conventional floor layout". In our realization
  // the average crosses below the torus at large n (see the strict test
  // below); at mid sizes it stays within a small factor.
  const std::uint32_t n = GetParam();
  const auto dsn6 = compute_cable_report(make_dsn_bidir(n));
  const auto torus3 = compute_cable_report(make_topology_by_name("torus3d", n));
  EXPECT_LT(dsn6.average_m, 1.25 * torus3.average_m) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Degree6CableTest, ::testing::Values(512u, 1024u, 2048u));

TEST(DsnBidir, ShorterCableThan3dTorusAtScale) {
  const auto dsn6 = compute_cable_report(make_dsn_bidir(2048));
  const auto torus3 = compute_cable_report(make_topology_by_name("torus3d", 2048));
  EXPECT_LT(dsn6.average_m, torus3.average_m);
  EXPECT_LT(dsn6.total_m, torus3.total_m);
}

TEST(DsnBidir, ComparableAsplTo3dTorus) {
  const std::uint32_t n = 512;
  const auto dsn6 = compute_path_stats(make_dsn_bidir(n).graph);
  const auto torus3 = compute_path_stats(make_topology_by_name("torus3d", n).graph);
  EXPECT_LT(dsn6.avg_shortest_path, 1.5 * torus3.avg_shortest_path);
}

// --------------------------------------------------------------------------
// Dateline DOR policy.
// --------------------------------------------------------------------------

TEST(TorusDorPolicySim, DeliversEverything) {
  const Topology topo = make_topology_by_name("torus", 64);
  TorusDorPolicy policy(topo, 4);
  UniformTraffic traffic(64 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 6'000;
  cfg.drain_cycles = 60'000;
  cfg.offered_gbps_per_host = 2.0;
  const SimResult res = run_simulation(topo, policy, traffic, cfg);
  ASSERT_FALSE(res.deadlock);
  ASSERT_TRUE(res.drained);
  EXPECT_EQ(res.packets_delivered, res.packets_measured);
}

TEST(TorusDorPolicySim, MinimalHops) {
  const Topology topo = make_topology_by_name("torus", 64);
  TorusDorPolicy policy(topo, 4);
  UniformTraffic traffic(64 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 6'000;
  cfg.drain_cycles = 60'000;
  cfg.offered_gbps_per_host = 1.0;
  const SimResult res = run_simulation(topo, policy, traffic, cfg);
  ASSERT_TRUE(res.drained);
  const auto stats = compute_path_stats(topo.graph);
  EXPECT_NEAR(res.avg_hops, stats.avg_shortest_path, 0.1);
}

TEST(TorusDorPolicySim, StressNoDeadlock) {
  const Topology topo = make_topology_by_name("torus", 36);
  TorusDorPolicy policy(topo, 4);
  UniformTraffic traffic(36 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 4'000;
  cfg.drain_cycles = 10'000;
  cfg.offered_gbps_per_host = 40.0;  // way past saturation
  const SimResult res = run_simulation(topo, policy, traffic, cfg);
  EXPECT_FALSE(res.deadlock);
}

TEST(TorusDorPolicy, CandidateVcEncodesDimensionAndDateline) {
  const Topology topo = make_torus_2d(8, 8);
  const TorusDorPolicy policy(topo, 4);
  std::vector<RouteCandidate> cands;
  // Moving in x with fresh state -> VC 0.
  policy.candidates(0, 3, 0, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].vc, 0u);
  // Moving in y (x already resolved) -> VC 2.
  policy.candidates(0, 3 * 8, 0, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].vc, 2u);
}

TEST(TorusDorPolicy, DatelineBitSetsOnWrapAndResetsOnTurn) {
  const Topology topo = make_torus_2d(8, 8);
  const TorusDorPolicy policy(topo, 4);
  // Wrap hop 0 -> 7 in x (toward 6) sets the crossed bit for dimension 0.
  std::vector<RouteCandidate> cands;
  policy.candidates(0, 6, 0, cands);
  ASSERT_EQ(cands.size(), 1u);
  ASSERT_EQ(cands[0].next, 7u);
  const std::uint8_t st = cands[0].state;
  policy.candidates(7, 6, st, cands);  // continue in x
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].vc, 1u);  // odd VC after the dateline
  // Turning into y resets the bit: next VC is the even y VC.
  policy.candidates(7, 7 + 3 * 8, st, cands);
  ASSERT_EQ(cands.size(), 1u);
  ASSERT_EQ(cands[0].next, 7u + 8);
  policy.candidates(7 + 8, 7 + 3 * 8, cands[0].state, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].vc, 2u);
}

TEST(TorusDorPolicy, RejectsBadConfig) {
  const Topology ring = make_ring(8);
  EXPECT_THROW(TorusDorPolicy(ring, 4), PreconditionError);
  const Topology t3 = make_torus_3d(4, 4, 4);
  EXPECT_THROW(TorusDorPolicy(t3, 4), PreconditionError);  // needs 6 VCs
  EXPECT_NO_THROW(TorusDorPolicy(t3, 6));
}

}  // namespace
}  // namespace dsn
