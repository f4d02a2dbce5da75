// Tests for the zero-load wire-latency estimator.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/wire_latency.hpp"
#include "dsn/graph/metrics.hpp"

namespace dsn {
namespace {

TEST(WireLatency, HopsMatchAspl) {
  const Topology topo = make_topology_by_name("dsn", 128);
  const auto stats = estimate_wire_latency(topo);
  const auto paths = compute_path_stats(topo.graph);
  EXPECT_NEAR(stats.avg_hops, paths.avg_shortest_path, 1e-9);
}

TEST(WireLatency, RouterOnlyWhenCableFree) {
  WireLatencyConfig cfg;
  cfg.cable_ns_per_m = 0.0;
  const Topology topo = make_topology_by_name("torus", 64);
  const auto stats = estimate_wire_latency(topo, cfg);
  const auto paths = compute_path_stats(topo.graph);
  // Latency = (hops + 1) * 100ns averaged.
  EXPECT_NEAR(stats.avg_latency_ns, (paths.avg_shortest_path + 1) * 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(stats.wire_fraction, 0.0);
}

TEST(WireLatency, CableAccumulatesAlongPaths) {
  // On a 32-node ring in 2 cabinets every path's cable is path-dependent but
  // bounded by hops * max link length; sanity-check the relation.
  const Topology ring = make_topology_by_name("ring", 32);
  const auto stats = estimate_wire_latency(ring);
  EXPECT_GT(stats.avg_cable_m, stats.avg_hops * 1.9);  // >= ~2 m per hop
  EXPECT_LT(stats.avg_cable_m, stats.avg_hops * 4.2);  // <= max hop length
}

TEST(WireLatency, RandomPaysMoreWireThanDsn) {
  // The paper's qualitative claim quantified: RANDOM's per-path cable exceeds
  // DSN's at scale.
  const auto dsn_stats = estimate_wire_latency(make_topology_by_name("dsn", 1024));
  const auto rnd_stats =
      estimate_wire_latency(make_topology_by_name("random", 1024, 1));
  EXPECT_GT(rnd_stats.avg_cable_m / rnd_stats.avg_hops,
            dsn_stats.avg_cable_m / dsn_stats.avg_hops);
}

TEST(WireLatency, DsnBeatsTorusEndToEnd) {
  // With 100 ns routers, hop count dominates: DSN's total estimate must beat
  // the torus at scale despite similar cable.
  const auto dsn_stats = estimate_wire_latency(make_topology_by_name("dsn", 1024));
  const auto torus_stats = estimate_wire_latency(make_topology_by_name("torus", 1024));
  EXPECT_LT(dsn_stats.avg_latency_ns, torus_stats.avg_latency_ns);
}

TEST(WireLatency, RepeatedCallsAreBitIdentical) {
  // Per-source sums merge in source order, so neither the thread count nor
  // the order in which workers finish can move a bit of the result.
  const auto bits = [](const WireLatencyStats& s) {
    return std::vector<std::uint64_t>{
        std::bit_cast<std::uint64_t>(s.avg_hops), std::bit_cast<std::uint64_t>(s.avg_cable_m),
        std::bit_cast<std::uint64_t>(s.avg_latency_ns),
        std::bit_cast<std::uint64_t>(s.max_latency_ns),
        std::bit_cast<std::uint64_t>(s.wire_fraction)};
  };
  for (const char* family : {"dsn", "torus", "random"}) {
    const Topology topo = make_topology_by_name(family, 1024, 1);
    const auto first = bits(estimate_wire_latency(topo));
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(bits(estimate_wire_latency(topo)), first) << family << " call " << rep + 1;
    }
  }
}

}  // namespace
}  // namespace dsn
