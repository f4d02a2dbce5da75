// Experiment runners shared between the bench binaries, tests and examples.
// Each figure of the paper's evaluation maps onto one of these sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

/// One (topology, size) point of the Figure 7/8/9 sweeps.
struct GraphSweepPoint {
  std::string topology;
  std::uint32_t n = 0;
  std::uint32_t diameter = 0;       ///< Fig. 7
  double aspl = 0.0;                ///< Fig. 8
  double avg_cable_m = 0.0;         ///< Fig. 9
  double total_cable_m = 0.0;
  double avg_degree = 0.0;
  std::size_t max_degree = 0;
};

/// Run the Fig. 7/8/9 sweep for one topology family over the given sizes.
std::vector<GraphSweepPoint> run_graph_sweep(const std::string& family,
                                             const std::vector<std::uint32_t>& sizes,
                                             std::uint64_t seed = 1);

/// Compute one point (metrics + layout) for an already built topology.
GraphSweepPoint evaluate_topology(const Topology& topo);

/// One latency-vs-load curve point of Figure 10. With replicas > 1, the
/// metrics are means over the replicated seeds and latency_stddev_ns holds
/// the sample standard deviation of the mean latency.
struct LatencyPoint {
  double offered_gbps = 0.0;
  double accepted_gbps = 0.0;
  double avg_latency_ns = 0.0;
  double latency_stddev_ns = 0.0;
  double p99_latency_ns = 0.0;
  double avg_hops = 0.0;
  bool drained = false;   ///< all replicas drained
  bool deadlock = false;  ///< any replica deadlocked
};

struct LatencySweepConfig {
  std::string traffic = "uniform";
  std::vector<double> offered_gbps;  ///< loads to sweep
  SimConfig sim;                     ///< offered load overridden per point
  /// "adaptive-updown" (paper default), "updown-only", or "dsn-custom"
  /// (the latter requires a basic DSN-x-n topology, whose x it routes with,
  /// and vcs % 4 == 0; anything else is refused with PreconditionError).
  std::string policy = "adaptive-updown";
  /// Independent replications per load (seeds sim.seed, sim.seed+1, ...).
  std::uint32_t replicas = 1;
};

/// Run a latency-vs-accepted-traffic sweep over the offered loads. Points are
/// simulated in parallel (each simulation is single-threaded deterministic).
std::vector<LatencyPoint> run_latency_sweep(const Topology& topo,
                                            const LatencySweepConfig& config);

/// Per-link traffic-balance statistics for the custom-routing ablation.
struct LinkLoadStats {
  double mean_flits = 0.0;
  double max_flits = 0.0;
  double coefficient_of_variation = 0.0;  ///< stddev / mean
  double max_over_mean = 0.0;
};
LinkLoadStats summarize_link_loads(const std::vector<std::uint64_t>& link_flits);

}  // namespace dsn
