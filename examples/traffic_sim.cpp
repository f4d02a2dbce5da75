// Interactive-grade driver for the cycle-accurate simulator: pick a topology,
// a traffic pattern, a routing policy and a load, and get latency/throughput
// plus a per-link load profile. This is the workload a network architect runs
// to size an interconnect before committing to hardware.
//
//   ./examples/example_traffic_sim --topology dsn --n 64 --traffic uniform
//       --policy adaptive-updown --load 6
#include <iostream>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn_ext.hpp"

int main(int argc, char** argv) {
  dsn::Cli cli("Cycle-accurate traffic simulation on a chosen topology.");
  cli.add_flag("topology", "dsn", "dsn | torus | random | ring | dln | torus3d");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("traffic", "uniform",
               "uniform | bit-reversal | neighboring | transpose | shuffle | hotspot");
  cli.add_flag("policy", "adaptive-updown", "adaptive-updown | updown-only | dsn-custom");
  cli.add_flag("load", "6.0", "offered Gbit/s per host");
  cli.add_flag("seed", "1", "seed");
  cli.add_flag("cycles", "30000", "measurement cycles");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const dsn::Topology topo =
      dsn::make_topology_by_name(cli.get("topology"), n, cli.get_uint("seed"));

  dsn::SimConfig cfg;
  cfg.offered_gbps_per_host = cli.get_double("load");
  cfg.seed = cli.get_uint("seed");
  cfg.measure_cycles = cli.get_uint("cycles");
  cfg.warmup_cycles = cfg.measure_cycles / 3;
  cfg.drain_cycles = cfg.measure_cycles * 4;

  // The up*/down* policies share one set of routing tables; the DSN custom
  // routing walks the topology's own DSN and needs no tables.
  std::unique_ptr<dsn::SimRouting> routing;
  std::unique_ptr<dsn::Dsn> dsn_struct;
  std::unique_ptr<dsn::SimRoutingPolicy> policy;
  const std::string policy_name = cli.get("policy");
  if (policy_name == "adaptive-updown" || policy_name == "updown-only") {
    routing = std::make_unique<dsn::SimRouting>(topo);
    if (policy_name == "adaptive-updown") {
      policy = std::make_unique<dsn::AdaptiveUpDownPolicy>(*routing, cfg.vcs);
    } else {
      policy = std::make_unique<dsn::UpDownOnlyPolicy>(*routing, cfg.vcs);
    }
  } else if (policy_name == "dsn-custom") {
    try {
      const dsn::DsnParams params =
          dsn::require_dsn_params(topo, {dsn::TopologyKind::kDsn}, "the dsn-custom policy");
      dsn_struct = std::make_unique<dsn::Dsn>(params.n, params.x);
    } catch (const dsn::PreconditionError& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    policy = std::make_unique<dsn::DsnCustomPolicy>(*dsn_struct);
  } else {
    std::cerr << "unknown policy: " << policy_name << "\n";
    return 1;
  }

  const auto traffic = dsn::make_traffic(cli.get("traffic"), n * cfg.hosts_per_switch);
  dsn::Simulator sim(topo, *policy, *traffic, cfg);
  const dsn::SimResult res = sim.run();

  dsn::Table table({"metric", "value"});
  table.row().cell("topology").cell(topo.name);
  table.row().cell("traffic").cell(traffic->name());
  table.row().cell("routing policy").cell(policy->name());
  table.row().cell("offered [Gb/s/host]").cell(res.offered_gbps_per_host);
  table.row().cell("accepted [Gb/s/host]").cell(res.accepted_gbps_per_host);
  table.row().cell("avg latency [ns]").cell(res.avg_latency_ns, 1);
  table.row().cell("p50 latency [ns]").cell(res.p50_latency_ns, 1);
  table.row().cell("p99 latency [ns]").cell(res.p99_latency_ns, 1);
  table.row().cell("avg hops").cell(res.avg_hops);
  table.row().cell("packets measured").cell(res.packets_measured);
  table.row().cell("packets delivered").cell(res.packets_delivered);
  table.row().cell("status").cell(res.deadlock ? "DEADLOCK"
                                               : (res.drained ? "drained" : "saturated"));
  table.print(std::cout, "Simulation result");

  const auto loads = dsn::summarize_link_loads(sim.link_flit_counts());
  dsn::Table balance({"link-load metric", "value"});
  balance.row().cell("mean flits/directed link").cell(loads.mean_flits, 1);
  balance.row().cell("max flits/directed link").cell(loads.max_flits, 1);
  balance.row().cell("max/mean").cell(loads.max_over_mean);
  balance.row().cell("coefficient of variation").cell(loads.coefficient_of_variation);
  balance.print(std::cout, "Traffic balance over directed links");
  return 0;
}
