// Fault drill: what happens to your interconnect when cables get cut or
// switches die? Two views:
//
//  1. Static sweep: random failure fractions on a chosen topology —
//     survival probability, path-length inflation, and the smallest link cut
//     that disconnects it (edge connectivity).
//  2. Live drill: down a shortcut link mid-run inside the cycle-accurate
//     flit simulator and watch the recovery layer react — per-epoch
//     degradation table plus the machine-readable degradation-curve JSON
//     that `dsn-lint drill --json` emits.
//
//   ./examples/example_fault_drill --topology dsn --n 256 --trials 20
//   ./examples/example_fault_drill --n 64 --live-n 48 --json
//   ./examples/example_fault_drill --n 64 --trace drill-trace.json
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/faults.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/graph/paths.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"

namespace {

/// Live drill on DSN-E: kill the first shortcut link mid-measurement, heal it
/// later, and print the degradation curve the recovery layer records.
void run_live_drill(std::uint32_t n, bool emit_json) {
  const dsn::Topology topo = dsn::make_topology_by_name("dsn-e", n);

  // First non-ring link: its loss actually forces a reroute (every ring hop
  // of DSN-E has a parallel partner link).
  const dsn::LinkId victim = dsn::drill_victim_link(topo);

  dsn::SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2'000;
  cfg.drain_cycles = 40'000;
  cfg.offered_gbps_per_host = 1.0;
  cfg.epoch_cycles = 250;

  dsn::FaultSchedule schedule;
  schedule.link_down(500, victim).link_up(1'500, victim);

  dsn::SimRouting routing(topo);
  dsn::AdaptiveUpDownPolicy policy(routing, cfg.vcs);
  dsn::UniformTraffic traffic(n * cfg.hosts_per_switch);
  dsn::Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const dsn::SimResult res = sim.run();

  std::cout << "\nLive drill on " << topo.name << ": shortcut link " << victim
            << " down @500, healed @1500\n";
  std::cout << "  " << res.packets_delivered_total << "/" << res.packets_generated_total
            << " delivered, " << res.packets_dropped << " dropped, "
            << res.packets_retried << " retried, " << res.routing_rebuilds
            << " routing rebuilds, conservation "
            << (res.conservation_ok ? "OK" : "VIOLATED") << "\n";
  for (const dsn::FaultRecord& rec : res.fault_log) {
    std::cout << "  " << dsn::fault_kind_name(rec.event.kind) << " " << rec.event.id
              << " @" << rec.event.cycle;
    if (rec.reconnected)
      std::cout << ": first delivery " << rec.reconnect_cycles << " cycles later";
    std::cout << "\n";
  }

  dsn::Table curve({"epoch start", "injected", "delivered", "dropped", "retried"});
  for (const dsn::EpochStats& e : res.epochs)
    curve.row().cell(e.start_cycle).cell(e.injected).cell(e.delivered).cell(e.dropped).cell(
        e.retried);
  curve.print(std::cout, "Degradation curve (250-cycle buckets)");

  if (emit_json)
    std::cout << "\ndegradation-curve JSON (dsn-lint drill --json emits the same shape):\n"
              << dsn::degradation_curve_json(res).dump(2) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  dsn::Cli cli("Fault drill: degradation of a topology under random failures.");
  cli.add_flag("topology", "dsn", "topology family (see analysis/factory.hpp)");
  cli.add_flag("n", "256", "number of switches");
  cli.add_flag("trials", "20", "random trials per failure fraction");
  cli.add_flag("seed", "1", "seed");
  cli.add_flag("live", "true", "also run the live simulator drill");
  cli.add_flag("live-n", "48", "switch count for the live drill (DSN-E)");
  cli.add_flag("json", "false", "print the live drill's degradation-curve JSON");
  cli.add_flag("trace", "",
               "write a Chrome-trace JSON of the whole run (fault-recovery "
               "spans, sim counter tracks; view at ui.perfetto.dev)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
#if DSN_OBS
    dsn::obs::set_metrics_enabled(true);
    dsn::obs::start_trace();
#else
    std::cerr << "fault_drill: --trace needs a DSN_OBS=1 build "
                 "(instrumentation is compiled out)\n";
    return 2;
#endif
  }

  const auto n = cli.get_uint32("n");
  const auto trials = cli.get_uint32("trials");
  const auto seed = cli.get_uint("seed");
  const dsn::Topology topo = dsn::make_topology_by_name(cli.get("topology"), n, seed);

  const auto base = dsn::compute_path_stats(topo.graph);
  std::cout << topo.name << ": " << topo.graph.num_links() << " links, diameter "
            << base.diameter << ", ASPL " << base.avg_shortest_path << "\n";
  std::cout << "edge connectivity (minimum cut that can disconnect a switch): "
            << dsn::edge_connectivity(topo.graph) << " links\n\n";

  dsn::Table table({"failure type", "% failed", "survival rate", "avg diameter",
                    "avg ASPL", "ASPL inflation"});
  for (const double f : {0.01, 0.02, 0.05, 0.10, 0.20}) {
    const auto links = dsn::evaluate_link_faults(topo, f, trials, seed);
    table.row()
        .cell("links")
        .cell(f * 100, 0)
        .cell(links.connected_rate, 2)
        .cell(links.connected_trials ? links.avg_diameter : 0.0, 1)
        .cell(links.connected_trials ? links.avg_aspl : 0.0)
        .cell(links.connected_trials ? links.avg_aspl / base.avg_shortest_path : 0.0);
    const auto switches = dsn::evaluate_switch_faults(topo, f, trials, seed);
    table.row()
        .cell("switches")
        .cell(f * 100, 0)
        .cell(switches.connected_rate, 2)
        .cell(switches.connected_trials ? switches.avg_diameter : 0.0, 1)
        .cell(switches.connected_trials ? switches.avg_aspl : 0.0)
        .cell(switches.connected_trials ? switches.avg_aspl / base.avg_shortest_path
                                        : 0.0);
  }
  table.print(std::cout, "Degradation under random failures (" +
                             std::to_string(trials) + " trials/point)");

  if (cli.get_bool("live"))
    run_live_drill(cli.get_uint32("live-n"), cli.get_bool("json"));

#if DSN_OBS
  if (!trace_path.empty() && dsn::obs::stop_trace(trace_path))
    std::cout << "\nwrote Chrome trace to " << trace_path
              << " (open at ui.perfetto.dev)\n";
#endif
  return 0;
}
