// Ablation: simulator microarchitecture parameters on the paper's DSN-64
// configuration — virtual channel count, packet length, and input buffer
// depth. Shows which §VII-A constants the headline latency result is (and is
// not) sensitive to.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"

namespace {

dsn::SimResult run_point(const dsn::Topology& topo, const dsn::SimRouting& routing,
                         const dsn::SimConfig& cfg) {
  dsn::AdaptiveUpDownPolicy policy(routing, cfg.vcs);
  dsn::UniformTraffic traffic(topo.num_nodes() * cfg.hosts_per_switch);
  return dsn::run_simulation(topo, policy, traffic, cfg);
}

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: VC count / packet length / buffer depth sensitivity.");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("load", "6.0", "offered Gbit/s per host");
  cli.add_flag("measure", "16000", "measurement cycles");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const dsn::Topology topo = dsn::make_topology_by_name("dsn", n);
  dsn::SimRouting routing(topo);

  dsn::SimConfig base;
  base.offered_gbps_per_host = cli.get_double("load");
  base.measure_cycles = cli.get_uint("measure");
  base.warmup_cycles = base.measure_cycles / 2;
  base.drain_cycles = base.measure_cycles * 4;

  dsn::Table table({"knob", "value", "accepted [Gb/s/host]", "latency [ns]",
                    "p99 [ns]", "status"});
  const auto report = [&](const char* knob, const std::string& value,
                          const dsn::SimConfig& cfg) {
    const dsn::SimResult res = run_point(topo, routing, cfg);
    table.row()
        .cell(knob)
        .cell(value)
        .cell(res.accepted_gbps_per_host)
        .cell(res.avg_latency_ns, 1)
        .cell(res.p99_latency_ns, 1)
        .cell(res.deadlock ? "DEADLOCK" : (res.drained ? "ok" : "saturated"));
  };

  for (const std::uint32_t vcs : {2u, 4u, 8u}) {
    dsn::SimConfig cfg = base;
    cfg.vcs = vcs;
    report("virtual channels", std::to_string(vcs), cfg);
  }
  for (const std::uint32_t pkt : {9u, 17u, 33u, 65u}) {
    dsn::SimConfig cfg = base;
    cfg.packet_flits = pkt;
    cfg.buffer_flits = pkt;  // VCT buffers scale with the packet
    report("packet flits", std::to_string(pkt), cfg);
  }
  for (const std::uint32_t mult : {1u, 2u, 4u}) {
    dsn::SimConfig cfg = base;
    cfg.buffer_flits = base.packet_flits * mult;
    report("buffer depth (packets)", std::to_string(mult), cfg);
  }
  table.print(std::cout,
              "Simulator parameter sensitivity on dsn-64, uniform traffic @ " +
                  std::to_string(base.offered_gbps_per_host) + " Gb/s/host");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
