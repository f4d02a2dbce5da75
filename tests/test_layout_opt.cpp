// Tests for the simulated-annealing placement optimizer and the wormhole
// switching mode, including the ring-deadlock negative control.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "dsn/analysis/factory.hpp"
#include "dsn/layout/optimize.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"

namespace dsn {
namespace {

// --------------------------------------------------------------------------
// placement optimizer
// --------------------------------------------------------------------------

TEST(PlacementOpt, IdentitySlotsMatchLinearLayout) {
  const Topology topo = make_topology_by_name("dsn", 128);
  std::vector<std::uint32_t> identity(128);
  std::iota(identity.begin(), identity.end(), 0);
  const auto with_slots = compute_cable_report(topo, FloorLayout(topo, {}, identity));
  FloorLayout linear(topo, {}, PlacementStrategy::kLinear);
  const auto direct = compute_cable_report(topo, linear);
  EXPECT_NEAR(with_slots.total_m, direct.total_m, 1e-9);
  EXPECT_EQ(with_slots.inter_cabinet_links, direct.inter_cabinet_links);
}

/// FNV-1a over the little-endian bytes of each slot.
std::uint64_t fnv1a(const std::vector<std::uint32_t>& slots) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint32_t s : slots) {
    for (int b = 0; b < 4; ++b) {
      h ^= (s >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The annealer draws the same proposals and prices them with the same sums
// in the same order, so the placement and both totals are pinned bit for bit.
TEST(PlacementOpt, GoldenPlacement) {
  const Topology topo = make_topology_by_name("random", 64, 3);
  PlacementOptimizerConfig cfg;
  cfg.iterations = 20'000;
  const auto placed = optimize_placement(topo, {}, cfg);
  EXPECT_EQ(fnv1a(placed.slot_of), 0x71931e872cf0dd55ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(placed.initial_total_m), 0x4076733333333335ULL)
      << placed.initial_total_m;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(placed.optimized_total_m), 0x4076f00000000002ULL)
      << placed.optimized_total_m;
}

TEST(PlacementOpt, ResultIsAPermutation) {
  const Topology topo = make_topology_by_name("random", 64, 3);
  PlacementOptimizerConfig cfg;
  cfg.iterations = 20'000;
  const auto placed = optimize_placement(topo, {}, cfg);
  std::vector<std::uint8_t> seen(64, 0);
  for (const auto s : placed.slot_of) {
    ASSERT_LT(s, 64u);
    EXPECT_FALSE(seen[s]) << "slot " << s << " assigned twice";
    seen[s] = 1;
  }
}

TEST(PlacementOpt, NeverWorsensMeaningfully) {
  const Topology topo = make_topology_by_name("random", 64, 3);
  PlacementOptimizerConfig cfg;
  cfg.iterations = 50'000;
  const auto placed = optimize_placement(topo, {}, cfg);
  // Annealing ends cold, so the result should be at or below the start.
  EXPECT_LE(placed.optimized_total_m, placed.initial_total_m * 1.01);
}

TEST(PlacementOpt, ImprovesScrambledDsn) {
  // Scramble a DSN's natural placement by relabeling via a random topology
  // start: annealing must claw back a meaningful fraction on the random
  // topology, whose identity placement is far from optimal.
  const Topology topo = make_topology_by_name("random", 128, 5);
  PlacementOptimizerConfig cfg;
  cfg.iterations = 120'000;
  const auto placed = optimize_placement(topo, {}, cfg);
  EXPECT_LT(placed.optimized_total_m, placed.initial_total_m);
}

TEST(PlacementOpt, DeterministicForSeed) {
  const Topology topo = make_topology_by_name("random", 64, 3);
  PlacementOptimizerConfig cfg;
  cfg.iterations = 10'000;
  const auto a = optimize_placement(topo, {}, cfg);
  const auto b = optimize_placement(topo, {}, cfg);
  EXPECT_EQ(a.slot_of, b.slot_of);
}

// --------------------------------------------------------------------------
// wormhole switching
// --------------------------------------------------------------------------

SimConfig wormhole_config(double load) {
  SimConfig cfg;
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;  // less than a packet: flits stretch across switches
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 5'000;
  cfg.drain_cycles = 40'000;
  cfg.offered_gbps_per_host = load;
  return cfg;
}

TEST(Wormhole, SmallBuffersStillDeliverWithSafeRouting) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  const SimResult res = run_simulation(topo, policy, traffic, wormhole_config(1.5));
  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.drained);
}

TEST(Wormhole, VctRejectsSmallBuffersButWormholeAccepts) {
  SimConfig cfg = wormhole_config(1.0);
  EXPECT_NO_THROW(cfg.validate());
  cfg.switching = SwitchingMode::kVirtualCutThrough;
  EXPECT_THROW(cfg.validate(), PreconditionError);
}

TEST(Wormhole, UnsafeClockwiseRingDeadlocks) {
  // The negative control: single-VC clockwise routing on a ring has a cyclic
  // channel dependency graph; with wormhole switching and enough load the
  // network must wedge, and the watchdog must report it.
  const Topology ring = make_topology_by_name("ring", 8);
  RingClockwisePolicy policy(ring);
  UniformTraffic traffic(8 * 4);
  SimConfig cfg = wormhole_config(40.0);
  cfg.vcs = 1;
  cfg.drain_cycles = 60'000;
  const SimResult res = run_simulation(ring, policy, traffic, cfg);
  EXPECT_TRUE(res.deadlock);
}

TEST(Wormhole, SafeRoutingOnSameRingDoesNotDeadlock) {
  const Topology ring = make_topology_by_name("ring", 8);
  SimRouting routing(ring);
  UpDownOnlyPolicy policy(routing, 2);
  UniformTraffic traffic(8 * 4);
  SimConfig cfg = wormhole_config(40.0);
  cfg.vcs = 2;
  cfg.drain_cycles = 30'000;
  const SimResult res = run_simulation(ring, policy, traffic, cfg);
  EXPECT_FALSE(res.deadlock);
}

TEST(Wormhole, ClockwiseRingAtTrivialLoadStillWorks) {
  const Topology ring = make_topology_by_name("ring", 8);
  RingClockwisePolicy policy(ring);
  UniformTraffic traffic(8 * 4);
  SimConfig cfg = wormhole_config(0.2);
  cfg.vcs = 1;
  const SimResult res = run_simulation(ring, policy, traffic, cfg);
  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.drained);
}

}  // namespace
}  // namespace dsn
