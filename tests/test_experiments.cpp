// Integration tests asserting the paper's headline relations (Figures 7-9
// shapes) through the experiment-runner layer, plus factory coverage.
#include <gtest/gtest.h>

#include <cmath>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

TEST(Factory, AllFamiliesBuild) {
  for (const std::string name : {"dsn", "torus", "torus3d", "random", "ring", "dln",
                                 "random-regular", "dsn-d", "dsn-e"}) {
    const Topology t = make_topology_by_name(name, 64);
    EXPECT_EQ(t.num_nodes(), 64u) << name;
  }
  EXPECT_EQ(make_topology_by_name("kleinberg", 64).num_nodes(), 64u);
  EXPECT_THROW(make_topology_by_name("nope", 64), PreconditionError);
}

TEST(Factory, TrioOrder) {
  EXPECT_EQ(paper_topology_trio(),
            (std::vector<std::string>{"torus", "random", "dsn"}));
}

// --------------------------------------------------------------------------
// Figure 7/8: DSN vs torus vs RANDOM orderings at every evaluated size.
// --------------------------------------------------------------------------

class FigureShapeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FigureShapeTest, Fig7DiameterOrdering) {
  const std::uint32_t n = GetParam();
  const auto torus = evaluate_topology(make_topology_by_name("torus", n));
  const auto random = evaluate_topology(make_topology_by_name("random", n, 1));
  const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
  // RANDOM <= DSN < torus once the torus grid outgrows log n (n >= 128).
  EXPECT_LE(random.diameter, dsn.diameter) << n;
  if (n >= 128) {
    EXPECT_LT(dsn.diameter, torus.diameter) << n;
  }
}

TEST_P(FigureShapeTest, Fig8AsplOrdering) {
  const std::uint32_t n = GetParam();
  const auto torus = evaluate_topology(make_topology_by_name("torus", n));
  const auto random = evaluate_topology(make_topology_by_name("random", n, 1));
  const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
  EXPECT_LE(random.aspl, dsn.aspl) << n;
  if (n >= 128) {
    EXPECT_LT(dsn.aspl, torus.aspl) << n;
  }
}

TEST_P(FigureShapeTest, Fig9CableOrdering) {
  const std::uint32_t n = GetParam();
  const auto random = evaluate_topology(make_topology_by_name("random", n, 1));
  const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
  EXPECT_LT(dsn.avg_cable_m, random.avg_cable_m) << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FigureShapeTest,
                         ::testing::Values(64u, 128u, 256u, 512u, 1024u));

TEST(FigureShape, Fig7TorusImprovementUpTo67Percent) {
  // Paper: DSN improves diameter over torus by up to 67% across the sweep.
  double best = 0;
  for (const std::uint32_t n : {512u, 1024u, 2048u}) {
    const auto torus = evaluate_topology(make_topology_by_name("torus", n));
    const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
    best = std::max(best, 1.0 - static_cast<double>(dsn.diameter) / torus.diameter);
  }
  EXPECT_GT(best, 0.6);
}

TEST(FigureShape, Fig8AsplImprovementUpTo55Percent) {
  double best = 0;
  for (const std::uint32_t n : {512u, 1024u, 2048u}) {
    const auto torus = evaluate_topology(make_topology_by_name("torus", n));
    const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
    best = std::max(best, 1.0 - dsn.aspl / torus.aspl);
  }
  EXPECT_GT(best, 0.5);
}

TEST(FigureShape, Fig9RandomCableGrowsFasterThanDsn) {
  // The RANDOM/DSN cable ratio must increase with n (RANDOM pays ~diameter
  // of the floor, DSN pays ~torus-like lengths).
  const auto at = [](std::uint32_t n) {
    const auto random = evaluate_topology(make_topology_by_name("random", n, 1));
    const auto dsn = evaluate_topology(make_topology_by_name("dsn", n));
    return random.avg_cable_m / dsn.avg_cable_m;
  };
  EXPECT_GT(at(2048), at(128));
}

TEST(FigureShape, Fig9DsnReductionVsRandomReaches25Percent) {
  // Paper reports up to 38% shorter cable than RANDOM; require a robust
  // fraction of that at the largest size (exact value depends on seeds).
  const auto random = evaluate_topology(make_topology_by_name("random", 2048, 1));
  const auto dsn = evaluate_topology(make_topology_by_name("dsn", 2048));
  EXPECT_GT(1.0 - dsn.avg_cable_m / random.avg_cable_m, 0.25);
}

TEST(GraphSweep, RunsAllSizes) {
  const auto points = run_graph_sweep("dsn", {32, 64, 128});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].n, 32u);
  EXPECT_EQ(points[2].n, 128u);
  EXPECT_LE(points[0].diameter, points[2].diameter);
}

TEST(LinkLoadStats, Formulae) {
  const auto s = summarize_link_loads({2, 4, 6});
  EXPECT_DOUBLE_EQ(s.mean_flits, 4.0);
  EXPECT_DOUBLE_EQ(s.max_flits, 6.0);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.5);
  EXPECT_NEAR(s.coefficient_of_variation, std::sqrt(8.0 / 3.0) / 4.0, 1e-12);
  const auto empty = summarize_link_loads({});
  EXPECT_DOUBLE_EQ(empty.mean_flits, 0.0);
}

// --------------------------------------------------------------------------
// Figure 10 (small-scale): at low load DSN's latency sits between RANDOM's
// and the torus's, tracking average shortest path length.
// --------------------------------------------------------------------------

TEST(Fig10Shape, LatencyOrderingAtLowLoad) {
  SimConfig sim;
  sim.warmup_cycles = 2'000;
  sim.measure_cycles = 6'000;
  sim.drain_cycles = 40'000;

  LatencySweepConfig sweep;
  sweep.offered_gbps = {2.0};
  sweep.sim = sim;

  const auto run = [&](const std::string& family) {
    const Topology topo = make_topology_by_name(family, 64, 1);
    const auto pts = run_latency_sweep(topo, sweep);
    EXPECT_TRUE(pts[0].drained) << family;
    EXPECT_FALSE(pts[0].deadlock) << family;
    return pts[0].avg_latency_ns;
  };

  const double torus = run("torus");
  const double random = run("random");
  const double dsn = run("dsn");
  EXPECT_LT(dsn, torus);           // the paper's headline: DSN beats torus
  EXPECT_LT(random, 1.15 * dsn);   // and sits near RANDOM
  EXPECT_GT(dsn, 0.8 * random);
}

LatencySweepConfig dsn_custom_sweep() {
  LatencySweepConfig sweep;
  sweep.offered_gbps = {2.0};
  sweep.sim.warmup_cycles = 2'000;
  sweep.sim.measure_cycles = 6'000;
  sweep.sim.drain_cycles = 40'000;
  sweep.policy = "dsn-custom";
  return sweep;
}

TEST(LatencySweep, DsnCustomRoutesWithTheTopologysOwnX) {
  // DSN-2-64 is not the default x = 5: the custom routing used to walk a
  // DSN-5-64 over it and stop on a hop that is no link of this topology.
  const Topology topo = make_dsn(64, 2);
  const auto pts = run_latency_sweep(topo, dsn_custom_sweep());
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_TRUE(pts[0].drained);
  EXPECT_FALSE(pts[0].deadlock);
  EXPECT_GT(pts[0].accepted_gbps, 0.0);
}

TEST(LatencySweep, DsnCustomRefusesANonDsnTopology) {
  const Topology torus = make_topology_by_name("torus", 64);
  try {
    run_latency_sweep(torus, dsn_custom_sweep());
    ADD_FAILURE() << "a torus was not refused";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(torus.name), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace dsn
