// Ablation: analytic queueing model vs cycle-accurate simulation. Each
// directed link is modeled as an M/D/1 queue over the minimal-adaptive flow
// split; the table shows predicted vs simulated average latency and the
// hottest-link utilization per load for the paper trio.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/queueing.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/sim/simulator.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: M/D/1 queueing model vs cycle-accurate simulation.");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("loads", "2,6,10", "offered loads in Gbit/s per host");
  cli.add_flag("measure", "16000", "measurement cycles per sim point");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto loads = cli.get_double_list("loads");

  dsn::Table table({"topology", "offered [Gb/s/host]", "model [ns]", "sim [ns]",
                    "model/sim", "max link rho"});
  for (const auto& family : dsn::paper_topology_trio()) {
    const dsn::Topology topo = dsn::make_topology_by_name(family, n, 1);
    const dsn::SimRouting routing(topo);
    for (const double load : loads) {
      dsn::SimConfig cfg;
      cfg.offered_gbps_per_host = load;
      cfg.measure_cycles = cli.get_uint("measure");
      cfg.warmup_cycles = cfg.measure_cycles / 2;
      cfg.drain_cycles = cfg.measure_cycles * 4;

      const auto pred = dsn::predict_uniform_latency(topo, routing, cfg);
      dsn::AdaptiveUpDownPolicy policy(routing, cfg.vcs);
      dsn::UniformTraffic traffic(n * cfg.hosts_per_switch);
      const dsn::SimResult sim = dsn::run_simulation(topo, policy, traffic, cfg);

      table.row()
          .cell(family)
          .cell(load)
          .cell(pred.stable ? pred.avg_latency_ns : 0.0, 1)
          .cell(sim.avg_latency_ns, 1)
          .cell(pred.stable && sim.avg_latency_ns > 0
                    ? pred.avg_latency_ns / sim.avg_latency_ns
                    : 0.0)
          .cell(pred.max_link_utilization);
    }
  }
  table.print(std::cout, "M/D/1 model vs simulation, uniform traffic, " +
                             std::to_string(n) + " switches");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
