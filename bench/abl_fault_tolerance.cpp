// Ablation: fault tolerance. The paper motivates low-degree topologies with
// simple fault management (§I); here we quantify how DSN, torus and RANDOM
// degrade under random link and switch failures.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/faults.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: connectivity/ASPL degradation under random failures.");
  cli.add_flag("n", "256", "network size");
  cli.add_flag("trials", "20", "trials per point");
  cli.add_flag("fractions", "0.01,0.02,0.05,0.1", "failure fractions to sweep");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto trials = cli.get_uint32("trials");
  const auto fractions = cli.get_double_list("fractions");
  const auto seed = cli.get_uint("seed");

  for (const bool switch_faults : {false, true}) {
    dsn::Table table({"topology", "failed", "connected rate", "avg diameter",
                      "avg ASPL"});
    for (const auto& family : dsn::paper_topology_trio()) {
      const dsn::Topology topo = dsn::make_topology_by_name(family, n, seed);
      for (const double f : fractions) {
        const dsn::FaultTrialResult r =
            switch_faults ? dsn::evaluate_switch_faults(topo, f, trials, seed)
                          : dsn::evaluate_link_faults(topo, f, trials, seed);
        table.row()
            .cell(family)
            .cell(f * 100.0, 0)
            .cell(r.connected_rate, 2)
            .cell(r.connected_trials ? r.avg_diameter : 0.0, 1)
            .cell(r.connected_trials ? r.avg_aspl : 0.0);
      }
    }
    table.print(std::cout, std::string("Fault tolerance under random ") +
                               (switch_faults ? "switch" : "link") + " failures (% of " +
                               (switch_faults ? "switches" : "links") + " failed), n = " +
                               std::to_string(n));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
