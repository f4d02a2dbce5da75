// Zero-load end-to-end latency estimation combining the paper's two delay
// sources (§I): switch traversals (~100 ns each) and cable propagation
// (~5 ns/m). For every ordered switch pair we take a hop-shortest path and
// accumulate the physical cable length along it under the machine-room
// layout, yielding the metric the paper argues about qualitatively: random
// topologies win on hops but pay wire delay for their long cables.
#pragma once

#include "dsn/topology/topology.hpp"

namespace dsn {

struct WireLatencyConfig {
  double router_ns = 100.0;   ///< per switch traversal (incl. destination)
  double cable_ns_per_m = 5.0;
};

struct WireLatencyStats {
  double avg_hops = 0.0;
  double avg_cable_m = 0.0;      ///< mean total cable meters along a path
  double avg_latency_ns = 0.0;   ///< hops*router + cable*prop, averaged
  double max_latency_ns = 0.0;
  double wire_fraction = 0.0;    ///< share of the average latency spent on wires
};

/// Estimate over all ordered pairs using BFS hop-shortest paths (the
/// dsn::bfs_tree of each source) under the topology's conventional
/// placement in the default machine room (MachineRoomConfig{}, as
/// compute_cable_report). Bit-identical for any thread count: per-source
/// sums are merged in source order.
WireLatencyStats estimate_wire_latency(const Topology& topo,
                                       const WireLatencyConfig& config = {});

}  // namespace dsn
