#include "dsn/analysis/experiments.hpp"

#include <cmath>
#include <memory>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace dsn {

GraphSweepPoint evaluate_topology(const Topology& topo) {
  GraphSweepPoint point;
  point.topology = topo.name;
  point.n = topo.num_nodes();
  const PathStats stats = compute_path_stats(topo.graph);
  DSN_REQUIRE(stats.connected, "topology must be connected: " + topo.name);
  point.diameter = stats.diameter;
  point.aspl = stats.avg_shortest_path;
  const CableReport cable = compute_cable_report(topo);
  point.avg_cable_m = cable.average_m;
  point.total_cable_m = cable.total_m;
  const DegreeStats deg = compute_degree_stats(topo.graph);
  point.avg_degree = deg.avg_degree;
  point.max_degree = deg.max_degree;
  return point;
}

std::vector<GraphSweepPoint> run_graph_sweep(const std::string& family,
                                             const std::vector<std::uint32_t>& sizes,
                                             std::uint64_t seed) {
  std::vector<GraphSweepPoint> points(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Topology topo = make_topology_by_name(family, sizes[i], seed);
    points[i] = evaluate_topology(topo);
    points[i].topology = family;
  }
  return points;
}

std::vector<LatencyPoint> run_latency_sweep(const Topology& topo,
                                            const LatencySweepConfig& config) {
  // Shared read-only preprocessing: the up*/down* tables, or the DSN the
  // custom routing walks, with the topology's own x.
  std::unique_ptr<SimRouting> routing;
  std::unique_ptr<Dsn> dsn_struct;
  if (config.policy == "adaptive-updown" || config.policy == "updown-only") {
    routing = std::make_unique<SimRouting>(topo);
  } else if (config.policy == "dsn-custom") {
    const DsnParams params =
        require_dsn_params(topo, {TopologyKind::kDsn}, "the dsn-custom policy");
    DSN_REQUIRE(config.sim.vcs % 4 == 0, "dsn-custom policy needs a multiple of 4 VCs");
    dsn_struct = std::make_unique<Dsn>(params.n, params.x);
  } else {
    throw PreconditionError("unknown policy: " + config.policy);
  }

  const std::uint32_t num_hosts = topo.num_nodes() * config.sim.hosts_per_switch;
  std::vector<LatencyPoint> points(config.offered_gbps.size());

  const std::uint32_t replicas = std::max(1u, config.replicas);
  parallel_for(0, config.offered_gbps.size(), [&](std::size_t i) {
    LatencyPoint& pt = points[i];
    pt.offered_gbps = config.offered_gbps[i];
    pt.drained = true;
    std::vector<double> latencies;
    latencies.reserve(replicas);

    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
      SimConfig sim_cfg = config.sim;
      sim_cfg.offered_gbps_per_host = config.offered_gbps[i];
      sim_cfg.seed = config.sim.seed + rep;

      std::unique_ptr<SimRoutingPolicy> policy;
      if (dsn_struct) {
        policy = std::make_unique<DsnCustomPolicy>(*dsn_struct, sim_cfg.vcs);
      } else if (config.policy == "adaptive-updown") {
        policy = std::make_unique<AdaptiveUpDownPolicy>(*routing, sim_cfg.vcs);
      } else {
        policy = std::make_unique<UpDownOnlyPolicy>(*routing, sim_cfg.vcs);
      }
      const auto traffic = make_traffic(config.traffic, num_hosts);

      const SimResult res = run_simulation(topo, *policy, *traffic, sim_cfg);
      pt.accepted_gbps += res.accepted_gbps_per_host;
      pt.p99_latency_ns += res.p99_latency_ns;
      pt.avg_hops += res.avg_hops;
      pt.drained = pt.drained && res.drained;
      pt.deadlock = pt.deadlock || res.deadlock;
      latencies.push_back(res.avg_latency_ns);
    }

    pt.accepted_gbps /= replicas;
    pt.p99_latency_ns /= replicas;
    pt.avg_hops /= replicas;
    double mean = 0.0;
    for (const double v : latencies) mean += v;
    mean /= static_cast<double>(latencies.size());
    pt.avg_latency_ns = mean;
    if (latencies.size() > 1) {
      double var = 0.0;
      for (const double v : latencies) var += (v - mean) * (v - mean);
      pt.latency_stddev_ns = std::sqrt(var / static_cast<double>(latencies.size() - 1));
    }
  });
  return points;
}

LinkLoadStats summarize_link_loads(const std::vector<std::uint64_t>& link_flits) {
  LinkLoadStats stats;
  if (link_flits.empty()) return stats;
  double sum = 0.0, max = 0.0;
  for (const auto v : link_flits) {
    sum += static_cast<double>(v);
    max = std::max(max, static_cast<double>(v));
  }
  const double mean = sum / static_cast<double>(link_flits.size());
  double var = 0.0;
  for (const auto v : link_flits) {
    const double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  var /= static_cast<double>(link_flits.size());
  stats.mean_flits = mean;
  stats.max_flits = max;
  stats.coefficient_of_variation = mean > 0 ? std::sqrt(var) / mean : 0.0;
  stats.max_over_mean = mean > 0 ? max / mean : 0.0;
  return stats;
}

}  // namespace dsn
