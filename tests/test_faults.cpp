// Tests for the fault-tolerance analysis: the live subgraph the sweeps
// evaluate and the degradation evaluators.
#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>
#include <string>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/faults.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

/// Mask of `size` live entries with the given ids dead.
std::vector<std::uint8_t> mask_without(std::size_t size, std::initializer_list<std::size_t> dead) {
  std::vector<std::uint8_t> mask(size, 1);
  for (const std::size_t id : dead) mask[id] = 0;
  return mask;
}

TEST(FaultSurgery, RemoveLinks) {
  const Topology ring = make_ring(8);
  const Graph g = live_subgraph(ring.graph, mask_without(8, {0, 3}), mask_without(8, {}));
  EXPECT_EQ(g.num_links(), 6u);
  EXPECT_FALSE(g.has_link(0, 1));
  EXPECT_FALSE(g.has_link(3, 4));
  EXPECT_TRUE(g.has_link(1, 2));
}

TEST(FaultSurgery, RemoveNodes) {
  const Topology ring = make_ring(8);
  const Graph g = live_subgraph(ring.graph, mask_without(8, {}), mask_without(8, {3}));
  EXPECT_EQ(g.num_links(), 6u);  // both links of node 3 gone
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_link(4, 5));
}

TEST(FaultSurgery, RejectsOutOfRange) {
  // Ids no longer enter: a mask of the wrong size is refused.
  const Topology ring = make_ring(8);
  EXPECT_THROW(live_subgraph(ring.graph, mask_without(99, {}), mask_without(8, {})),
               PreconditionError);
  EXPECT_THROW(live_subgraph(ring.graph, mask_without(8, {}), mask_without(99, {})),
               PreconditionError);
}

// Both sweeps on DSN-128: the same trials see the same subgraphs, so the
// connected counts and the averages are pinned bit for bit.
TEST(FaultSweep, GoldenTrials) {
  struct Golden {
    double fraction;
    bool switches;
    std::uint32_t connected;
    std::uint64_t diameter_bits, aspl_bits;
  };
  const Golden goldens[] = {
      {0.05, false, 5, 0x4020000000000000ULL, 0x4011d3dae9053daeULL},
      {0.05, true, 5, 0x4020666666666666ULL, 0x4011965a8639c870ULL},
      {0.1, false, 5, 0x4022000000000000ULL, 0x4012b06da81d06daULL},
      {0.1, true, 5, 0x402199999999999aULL, 0x40125a570f3d2aa8ULL},
  };
  const Topology topo = make_topology_by_name("dsn", 128);
  for (const Golden& g : goldens) {
    const FaultTrialResult r = g.switches ? evaluate_switch_faults(topo, g.fraction, 5, 1)
                                          : evaluate_link_faults(topo, g.fraction, 5, 1);
    const std::string what =
        std::string(g.switches ? "switch " : "link ") + std::to_string(g.fraction);
    EXPECT_EQ(r.connected_trials, g.connected) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.avg_diameter), g.diameter_bits)
        << what << " " << r.avg_diameter;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.avg_aspl), g.aspl_bits) << what << " " << r.avg_aspl;
  }
}

TEST(Faults, ZeroFractionIsBaseline) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const auto r = evaluate_link_faults(topo, 0.0, 3, 1);
  EXPECT_DOUBLE_EQ(r.connected_rate, 1.0);
  EXPECT_EQ(r.connected_trials, 3u);
  const auto base = compute_path_stats(topo.graph);
  EXPECT_DOUBLE_EQ(r.avg_diameter, base.diameter);
  EXPECT_NEAR(r.avg_aspl, base.avg_shortest_path, 1e-9);
}

TEST(Faults, RingDisconnectsEasily) {
  // Removing 10% of a ring's links (>= 2 links) always disconnects it.
  const Topology ring = make_ring(64);
  const auto r = evaluate_link_faults(ring, 0.1, 5, 2);
  EXPECT_DOUBLE_EQ(r.connected_rate, 0.0);
}

TEST(Faults, DsnSurvivesModerateLinkFailures) {
  // The shortcut hierarchy provides alternative paths around ring failures.
  const Topology topo = make_topology_by_name("dsn", 128);
  const auto r = evaluate_link_faults(topo, 0.02, 10, 3);
  EXPECT_GT(r.connected_rate, 0.5);
}

TEST(Faults, AsplGrowsWithFailures) {
  const Topology topo = make_topology_by_name("random", 128, 1);
  const auto r0 = evaluate_link_faults(topo, 0.0, 1, 1);
  const auto r1 = evaluate_link_faults(topo, 0.05, 10, 1);
  ASSERT_GT(r1.connected_trials, 0u);
  EXPECT_GE(r1.avg_aspl, r0.avg_aspl);
}

TEST(Faults, SwitchFaultsEvaluateSurvivors) {
  const Topology topo = make_topology_by_name("random", 64, 5);
  const auto r = evaluate_switch_faults(topo, 0.05, 8, 4);
  EXPECT_EQ(r.trials, 8u);
  // Random degree-4 graphs are robust to a few node losses.
  EXPECT_GT(r.connected_rate, 0.3);
}

TEST(Faults, DeterministicForSeed) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const auto a = evaluate_link_faults(topo, 0.05, 5, 42);
  const auto b = evaluate_link_faults(topo, 0.05, 5, 42);
  EXPECT_EQ(a.connected_trials, b.connected_trials);
  EXPECT_DOUBLE_EQ(a.avg_aspl, b.avg_aspl);
}

TEST(Faults, RejectsBadFraction) {
  const Topology topo = make_topology_by_name("dsn", 64);
  EXPECT_THROW(evaluate_link_faults(topo, 1.0, 1, 1), PreconditionError);
  EXPECT_THROW(evaluate_switch_faults(topo, -0.1, 1, 1), PreconditionError);
}

// --------------------------------------------------------------------------
// subset_path_stats: the MS-BFS/CSR rewrite must agree with a brute-force
// per-source BFS on every input class (node faults, non-multiple-of-64 sizes,
// disconnected survivors).
// --------------------------------------------------------------------------

SubsetPathStats brute_force_stats(const Graph& g, const std::vector<std::uint8_t>& alive) {
  SubsetPathStats out;
  std::uint64_t alive_count = 0;
  for (const auto a : alive) alive_count += a;
  if (alive_count <= 1) {
    out.connected = true;
    return out;
  }
  std::uint64_t pairs = 0, total = 0;
  std::uint32_t diameter = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (!alive[s]) continue;
    const auto dist = bfs_distances(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (!alive[t] || t == s) continue;
      if (dist[t] == kUnreachable) return out;
      total += dist[t];
      diameter = std::max(diameter, dist[t]);
      ++pairs;
    }
  }
  out.connected = true;
  out.diameter = diameter;
  out.aspl = static_cast<double>(total) / static_cast<double>(pairs);
  return out;
}

TEST(SubsetPathStats, MatchesBruteForceWithNodeFaults) {
  // 100 nodes: exercises the partial last MS-BFS batch (100 % 64 != 0).
  const Topology topo = make_topology_by_name("random", 100, 7);
  std::vector<std::uint8_t> alive(100, 1);
  alive[3] = alive[41] = alive[99] = 0;
  const auto fast = subset_path_stats(topo.graph, alive);
  const auto slow = brute_force_stats(topo.graph, alive);
  EXPECT_EQ(fast.connected, slow.connected);
  EXPECT_EQ(fast.diameter, slow.diameter);
  EXPECT_NEAR(fast.aspl, slow.aspl, 1e-12);
}

TEST(SubsetPathStats, DisconnectedReportsZeros) {
  const Topology ring = make_ring(16);
  // Links 0 and 8 split the cycle.
  const Graph cut = live_subgraph(ring.graph, mask_without(16, {0, 8}), mask_without(16, {}));
  const std::vector<std::uint8_t> alive(16, 1);
  const auto s = subset_path_stats(cut, alive);
  EXPECT_FALSE(s.connected);
  EXPECT_EQ(s.diameter, 0u);
  EXPECT_DOUBLE_EQ(s.aspl, 0.0);
}

TEST(SubsetPathStats, SingleSurvivorIsTriviallyConnected) {
  const Topology ring = make_ring(8);
  std::vector<std::uint8_t> alive(8, 0);
  alive[5] = 1;
  const auto s = subset_path_stats(ring.graph, alive);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 0u);
}

TEST(Faults, SwitchFaultsDeterministicForSeed) {
  const Topology topo = make_topology_by_name("random", 96, 5);
  const auto a = evaluate_switch_faults(topo, 0.05, 6, 42);
  const auto b = evaluate_switch_faults(topo, 0.05, 6, 42);
  EXPECT_EQ(a.connected_trials, b.connected_trials);
  EXPECT_DOUBLE_EQ(a.avg_aspl, b.avg_aspl);
  EXPECT_DOUBLE_EQ(a.avg_diameter, b.avg_diameter);
}

TEST(Faults, DifferentSeedsSampleDifferentFaultSets) {
  // Statistical, not strict: across ten fractions at least one must differ.
  const Topology topo = make_topology_by_name("dsn", 128);
  bool any_diff = false;
  for (std::uint64_t s = 0; s < 10 && !any_diff; ++s) {
    const auto a = evaluate_link_faults(topo, 0.06, 4, s);
    const auto b = evaluate_link_faults(topo, 0.06, 4, s + 1000);
    any_diff = a.avg_aspl != b.avg_aspl || a.connected_trials != b.connected_trials;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace dsn
