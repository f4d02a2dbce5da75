// Ablation: all six traffic patterns on the paper trio at one load point —
// extends Figure 10's three patterns with transpose, shuffle and hotspot.
#include <iostream>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: latency across all traffic patterns at one load.");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("load", "4.0", "offered Gbit/s per host");
  cli.add_flag("measure", "16000", "measurement cycles");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");

  dsn::SimConfig sim;
  sim.seed = cli.get_uint("seed");
  sim.measure_cycles = cli.get_uint("measure");
  sim.warmup_cycles = sim.measure_cycles / 2;
  sim.drain_cycles = sim.measure_cycles * 4;

  dsn::Table table({"traffic", "topology", "accepted [Gb/s/host]", "latency [ns]",
                    "p99 [ns]", "avg hops", "status"});
  for (const std::string traffic :
       {"uniform", "bit-reversal", "neighboring", "transpose", "shuffle", "hotspot"}) {
    for (const auto& family : dsn::paper_topology_trio()) {
      const dsn::Topology topo = dsn::make_topology_by_name(family, n, sim.seed);
      dsn::LatencySweepConfig sweep;
      sweep.traffic = traffic;
      sweep.offered_gbps = {cli.get_double("load")};
      sweep.sim = sim;
      const auto pts = dsn::run_latency_sweep(topo, sweep);
      const auto& pt = pts[0];
      table.row()
          .cell(traffic)
          .cell(family)
          .cell(pt.accepted_gbps)
          .cell(pt.avg_latency_ns, 1)
          .cell(pt.p99_latency_ns, 1)
          .cell(pt.avg_hops)
          .cell(pt.deadlock ? "DEADLOCK" : (pt.drained ? "ok" : "saturated"));
    }
  }
  table.print(std::cout, "All traffic patterns at " + cli.get("load") +
                             " Gb/s/host, " + std::to_string(n) + " switches");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
