// Figure 10: latency vs accepted traffic for DSN, torus and RANDOM (degree 4)
// under (a) uniform, (b) bit-reversal and (c) neighboring traffic.
//
// Paper setup (§VII-A): 64 switches x 4 hosts, virtual cut-through, 4 VCs,
// >100 ns per-hop header latency, 20 ns injection+link delay, 33-flit
// packets, 256-bit flits, 96 Gbps links, topology-agnostic adaptive routing
// with up*/down* escape paths.
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Figure 10 reproduction: latency vs accepted traffic.");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("loads", "1,2,3,4,5,6,7,8,9,10,11,12",
               "offered loads in Gbit/s per host");
  cli.add_flag("traffics", "uniform,bit-reversal,neighboring",
               "traffic patterns to sweep");
  cli.add_flag("seed", "1", "seed for the random topology and traffic");
  cli.add_flag("warmup", "10000", "warmup cycles");
  cli.add_flag("measure", "30000", "measurement cycles");
  cli.add_flag("drain", "80000", "drain cycle cap");
  cli.add_flag("quick", "false", "short run (fewer cycles) for CI/smoke use");
  cli.add_flag("seeds", "1", "independent replications per point (mean +/- sd)");
  cli.add_flag("policy", "adaptive-updown",
               "adaptive-updown | updown-only | dsn-custom");
  cli.add_flag("csv", "", "also write each traffic's table to <csv>.<traffic>.csv");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto loads = cli.get_double_list("loads");
  const auto seed = cli.get_uint("seed");

  dsn::SimConfig sim;
  sim.seed = seed;
  if (cli.get_bool("quick")) {
    sim.warmup_cycles = 4'000;
    sim.measure_cycles = 10'000;
    sim.drain_cycles = 40'000;
  } else {
    sim.warmup_cycles = cli.get_uint("warmup");
    sim.measure_cycles = cli.get_uint("measure");
    sim.drain_cycles = cli.get_uint("drain");
  }

  const std::vector<std::string> traffics = cli.get_list("traffics");

  // DSN custom routing runs only on the basic DSN; up*/down* on every family.
  const std::string policy = cli.get("policy");
  std::vector<std::pair<std::string, dsn::Topology>> swept;
  std::string skipped;
  for (const auto& family : dsn::paper_topology_trio()) {
    dsn::Topology topo = dsn::make_topology_by_name(family, n, seed);
    if (policy == "dsn-custom" && topo.kind != dsn::TopologyKind::kDsn) {
      skipped += (skipped.empty() ? "" : ", ") + family;
    } else {
      swept.emplace_back(family, std::move(topo));
    }
  }
  if (!skipped.empty()) {
    std::cout << "policy " << policy << " does not apply to " << skipped << ": skipped\n";
  }

  const auto replicas = cli.get_uint32("seeds");
  for (const auto& traffic : traffics) {
    dsn::Table table({"topology", "offered [Gb/s/host]", "accepted [Gb/s/host]",
                      "latency [ns]", "+/- sd", "p99 [ns]", "avg hops", "status"});
    for (const auto& [family, topo] : swept) {
      dsn::LatencySweepConfig sweep;
      sweep.traffic = traffic;
      sweep.offered_gbps = loads;
      sweep.sim = sim;
      sweep.replicas = replicas;
      sweep.policy = policy;
      const auto points = dsn::run_latency_sweep(topo, sweep);
      for (const auto& pt : points) {
        table.row()
            .cell(family)
            .cell(pt.offered_gbps)
            .cell(pt.accepted_gbps)
            .cell(pt.avg_latency_ns, 1)
            .cell(pt.latency_stddev_ns, 1)
            .cell(pt.p99_latency_ns, 1)
            .cell(pt.avg_hops)
            .cell(pt.deadlock ? "DEADLOCK" : (pt.drained ? "ok" : "saturated"));
      }
    }
    table.print(std::cout, "Figure 10: latency vs accepted traffic — " + traffic +
                               " traffic, " + std::to_string(n) + " switches");
    if (!cli.get("csv").empty()) {
      const std::string path = cli.get("csv") + "." + traffic + ".csv";
      std::ofstream(path) << table.to_csv();
      std::cout << "wrote " << path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
