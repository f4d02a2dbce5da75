// Ablation: what each piece of the fault-recovery stack buys.
//
// A shortcut link of DSN-E dies mid-run (optionally healing later). Four
// arms toggle the two recovery mechanisms independently:
//
//   none          no routing rebuild, no retry — packets aimed at the dead
//                 link are stranded until the TTL converts them into drops
//   retry only    damaged packets requeue at their NIC with exponential
//                 backoff, but routing still points across the dead link
//   rebuild only  up*/down* re-derives over the alive subgraph, but damaged
//                 in-flight packets are dropped instead of retried
//   full          rebuild + retry (the simulator default)
//
// Reported per arm: delivered fraction, drops (fault vs TTL), retries,
// time-to-reconnect after the failure, and p99 latency. A second table shows
// the full arm's degradation curve (per-epoch injected/delivered/dropped) —
// the same data `dsn-lint drill --json` emits.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: recovery mechanisms under a mid-run link failure on DSN-E.");
  cli.add_flag("n", "48", "number of switches");
  cli.add_flag("load", "1.0", "offered load in Gbit/s per host");
  cli.add_flag("measure", "3000", "measurement cycles (failure lands inside)");
  cli.add_flag("fail-at", "500", "cycle of the link-down event");
  cli.add_flag("heal-at", "0", "cycle of the link repair (0 = never heals)");
  cli.add_flag("ttl", "5000",
               "packet time-to-live [cycles]; bounds how long the no-recovery "
               "arms strand packets");
  cli.add_flag("epoch", "500", "degradation-curve bucket width [cycles]");
  cli.add_flag("seed", "1", "traffic seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const dsn::Topology topo = dsn::make_topology_by_name("dsn-e", n);
  const dsn::LinkId victim = dsn::drill_victim_link(topo);

  dsn::SimConfig base;
  base.warmup_cycles = 0;
  base.measure_cycles = cli.get_uint("measure");
  base.drain_cycles = 20 * base.measure_cycles;
  base.offered_gbps_per_host = cli.get_double("load");
  base.seed = cli.get_uint("seed");
  base.packet_ttl_cycles = cli.get_uint("ttl");
  base.epoch_cycles = cli.get_uint("epoch");

  dsn::FaultSchedule schedule;
  schedule.link_down(cli.get_uint("fail-at"), victim);
  if (cli.get_uint("heal-at") != 0) schedule.link_up(cli.get_uint("heal-at"), victim);

  dsn::SimRouting routing(topo);
  dsn::AdaptiveUpDownPolicy policy(routing, base.vcs);
  dsn::UniformTraffic traffic(n * base.hosts_per_switch);

  dsn::Table table({"recovery", "delivered", "dropped (ttl)", "retried",
                    "reconnect [cyc]", "p99 [ns]", "status"});
  dsn::SimResult full_result;
  const auto run_arm = [&](const char* label, bool rebuild, bool retry) {
    dsn::SimConfig cfg = base;
    cfg.rebuild_routing_on_fault = rebuild;
    cfg.retry_on_fault = retry;
    dsn::Simulator sim(topo, policy, traffic, cfg);
    sim.set_fault_schedule(schedule);
    const dsn::SimResult res = sim.run();

    const double frac =
        res.packets_generated_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(res.packets_delivered_total) /
                  static_cast<double>(res.packets_generated_total);
    std::string reconnect = "-";
    if (!res.fault_log.empty() && res.fault_log[0].reconnected)
      reconnect = std::to_string(res.fault_log[0].reconnect_cycles);
    table.row()
        .cell(label)
        .cell([&] {
          std::ostringstream os;
          os << res.packets_delivered_total << "/" << res.packets_generated_total
             << " (" << std::fixed << std::setprecision(1) << frac << "%)";
          return os.str();
        }())
        .cell(std::to_string(res.packets_dropped) + " (" +
              std::to_string(res.packets_dropped_ttl) + ")")
        .cell(res.packets_retried)
        .cell(reconnect)
        .cell(res.p99_latency_ns, 1)
        .cell(res.deadlock ? "DEADLOCK"
                           : (res.conservation_ok ? (res.drained ? "ok" : "not drained")
                                                  : "LEAK"));
    if (rebuild && retry) full_result = res;
  };

  run_arm("none", false, false);
  run_arm("retry only", false, true);
  run_arm("rebuild only", true, false);
  run_arm("full (rebuild + retry)", true, true);

  table.print(std::cout, "Recovery ablation on DSN-E-" + std::to_string(n) +
                             ": shortcut link " + std::to_string(victim) +
                             " down @" + std::to_string(cli.get_uint("fail-at")) +
                             (cli.get_uint("heal-at") != 0
                                  ? ", healed @" + std::to_string(cli.get_uint("heal-at"))
                                  : ", never healed"));

  dsn::Table curve({"epoch start", "injected", "delivered", "dropped", "retried"});
  for (const dsn::EpochStats& e : full_result.epochs) {
    curve.row()
        .cell(e.start_cycle)
        .cell(e.injected)
        .cell(e.delivered)
        .cell(e.dropped)
        .cell(e.retried);
  }
  curve.print(std::cout, "Degradation curve, full-recovery arm (bucket " +
                             std::to_string(base.epoch_cycles) + " cycles)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
