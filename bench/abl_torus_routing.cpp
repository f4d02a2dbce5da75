// Ablation: routing scheme on the torus. The paper runs the topology-agnostic
// adaptive scheme (up*/down* escape) on *all* topologies, including the torus
// — which penalizes the torus relative to its native dimension-order router.
// This bench quantifies that penalty (latency and saturation throughput).
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: adaptive+up*/down* vs native dateline DOR on the torus.");
  cli.add_flag("n", "64", "number of switches (must factor into a 2-D torus)");
  cli.add_flag("loads", "1,3,5,7,9,11", "offered loads in Gbit/s per host");
  cli.add_flag("warmup", "8000", "warmup cycles");
  cli.add_flag("measure", "20000", "measurement cycles");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto loads = cli.get_double_list("loads");

  dsn::SimConfig cfg;
  cfg.warmup_cycles = cli.get_uint("warmup");
  cfg.measure_cycles = cli.get_uint("measure");
  cfg.drain_cycles = 4 * cfg.measure_cycles;

  const dsn::Topology topo = dsn::make_topology_by_name("torus", n);
  dsn::SimRouting routing(topo);
  dsn::UniformTraffic traffic(n * cfg.hosts_per_switch);

  dsn::Table table({"routing", "offered [Gb/s/host]", "accepted [Gb/s/host]",
                    "latency [ns]", "avg hops", "status"});
  for (const double load : loads) {
    dsn::SimConfig point = cfg;
    point.offered_gbps_per_host = load;
    for (int which = 0; which < 2; ++which) {
      std::unique_ptr<dsn::SimRoutingPolicy> policy;
      if (which == 0) {
        policy = std::make_unique<dsn::AdaptiveUpDownPolicy>(routing, point.vcs);
      } else {
        policy = std::make_unique<dsn::TorusDorPolicy>(topo, point.vcs);
      }
      const dsn::SimResult res = dsn::run_simulation(topo, *policy, traffic, point);
      table.row()
          .cell(policy->name())
          .cell(res.offered_gbps_per_host)
          .cell(res.accepted_gbps_per_host)
          .cell(res.avg_latency_ns, 1)
          .cell(res.avg_hops)
          .cell(res.deadlock ? "DEADLOCK" : (res.drained ? "ok" : "saturated"));
    }
  }
  table.print(std::cout, "Torus routing ablation on " + topo.name + ", uniform traffic");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
