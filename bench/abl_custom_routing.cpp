// Ablation: §VII's closing remark — the DSN custom routing balances traffic
// better than plain up*/down*.
//
// Two views:
//  1. Analytic: count directed-link usages over all ordered (s, t) routes
//     (the expected link load under uniform traffic). Up*/down* concentrates
//     load near the tree root; the custom routing spreads it across the
//     shortcut hierarchy.
//  2. Simulated: run the cycle-accurate simulator under each scheme and
//     report measured link-flit balance plus latency/throughput.
#include <functional>
#include <iostream>
#include <memory>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/routing/updown.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

/// Directed-link usage counts over all ordered pairs, keyed 2*link + dir.
std::vector<std::uint64_t> count_usages(
    const dsn::Graph& g,
    const std::function<std::vector<dsn::NodeId>(dsn::NodeId, dsn::NodeId)>& path_fn) {
  std::vector<std::uint64_t> counts(g.num_links() * 2, 0);
  for (dsn::NodeId s = 0; s < g.num_nodes(); ++s) {
    for (dsn::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const auto path = path_fn(s, t);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const dsn::LinkId link = g.find_link(path[i], path[i + 1]);
        const auto [a, b] = g.link_endpoints(link);
        counts[2 * link + (path[i] == a ? 0 : 1)]++;
      }
    }
  }
  return counts;
}

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: custom routing vs up*/down* traffic balance on DSN.");
  cli.add_flag("n", "64", "number of switches");
  cli.add_flag("load", "2.0", "offered load in Gbit/s per host");
  cli.add_flag("warmup", "10000", "warmup cycles");
  cli.add_flag("measure", "30000", "measurement cycles");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const double load = cli.get_double("load");

  dsn::SimConfig cfg;
  cfg.warmup_cycles = cli.get_uint("warmup");
  cfg.measure_cycles = cli.get_uint("measure");
  cfg.drain_cycles = 4 * cfg.measure_cycles;
  cfg.offered_gbps_per_host = load;

  const dsn::Dsn dsn_struct(n, dsn::dsn_default_x(n));
  const dsn::Topology& topo = dsn_struct.topology();
  dsn::SimRouting routing(topo);
  dsn::UniformTraffic traffic(n * cfg.hosts_per_switch);

  // ---- Analytic all-pairs link-usage balance (paper's balance claim). ----
  {
    dsn::Table table({"routing", "mean usage", "max usage", "max/mean", "CoV"});
    const auto report = [&](const char* label, const std::vector<std::uint64_t>& counts) {
      const auto s = dsn::summarize_link_loads(counts);
      table.row()
          .cell(label)
          .cell(s.mean_flits, 1)
          .cell(s.max_flits, 1)
          .cell(s.max_over_mean)
          .cell(s.coefficient_of_variation);
    };
    report("up*/down*", count_usages(topo.graph, [&](dsn::NodeId s, dsn::NodeId t) {
             return routing.updown().route(s, t);
           }));
    const dsn::DsnRouter router(dsn_struct);
    report("DSN custom", count_usages(topo.graph, [&](dsn::NodeId s, dsn::NodeId t) {
             const dsn::Route r = router.route(s, t);
             std::vector<dsn::NodeId> path{r.src};
             for (const auto& h : r.hops) path.push_back(h.to);
             return path;
           }));
    table.print(std::cout,
                "Analytic link-usage balance over all ordered pairs (uniform demand)");
  }

  dsn::Table table({"routing", "accepted [Gb/s/host]", "latency [ns]", "avg hops",
                    "link max/mean", "link CoV", "status"});
  const auto run_one = [&](const char* label, dsn::SimRoutingPolicy& policy) {
    dsn::Simulator sim(topo, policy, traffic, cfg);
    const dsn::SimResult res = sim.run();
    const auto loads = dsn::summarize_link_loads(sim.link_flit_counts());
    table.row()
        .cell(label)
        .cell(res.accepted_gbps_per_host)
        .cell(res.avg_latency_ns, 1)
        .cell(res.avg_hops)
        .cell(loads.max_over_mean)
        .cell(loads.coefficient_of_variation)
        .cell(res.deadlock ? "DEADLOCK" : (res.drained ? "ok" : "saturated"));
  };

  {
    dsn::UpDownOnlyPolicy policy(routing, cfg.vcs);
    run_one("up*/down* only (4 VCs)", policy);
  }
  {
    dsn::AdaptiveUpDownPolicy policy(routing, cfg.vcs);
    run_one("adaptive + up*/down* escape (4 VCs)", policy);
  }
  {
    dsn::DsnCustomPolicy policy(dsn_struct, cfg.vcs);
    run_one("DSN custom (4 VCs, 1/class)", policy);
  }
  {
    // Give the custom scheme two VCs per channel class (8 VCs total) to show
    // where its throughput limit comes from: per-class HOL blocking, not the
    // path structure itself.
    dsn::SimConfig wide = cfg;
    wide.vcs = 8;
    dsn::DsnCustomPolicy policy(dsn_struct, wide.vcs);
    dsn::Simulator sim(topo, policy, traffic, wide);
    const dsn::SimResult res = sim.run();
    const auto loads = dsn::summarize_link_loads(sim.link_flit_counts());
    table.row()
        .cell("DSN custom (8 VCs, 2/class)")
        .cell(res.accepted_gbps_per_host)
        .cell(res.avg_latency_ns, 1)
        .cell(res.avg_hops)
        .cell(loads.max_over_mean)
        .cell(loads.coefficient_of_variation)
        .cell(res.deadlock ? "DEADLOCK" : (res.drained ? "ok" : "saturated"));
  }

  table.print(std::cout, "Custom routing traffic balance on DSN-" +
                             std::to_string(dsn::dsn_default_x(n)) + "-" +
                             std::to_string(n) + " @ " + std::to_string(load) +
                             " Gb/s/host uniform");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
