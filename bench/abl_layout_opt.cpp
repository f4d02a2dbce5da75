// Ablation: layout optimization (the §III context of [11], "layout-conscious
// random topologies"). Simulated annealing re-places switches in cabinets to
// minimize total cable; even so, the random topology cannot close the gap to
// DSN's naturally linear placement.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/layout/optimize.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: simulated-annealing cabinet placement optimization.");
  cli.add_flag("n", "256", "network size");
  cli.add_flag("iters", "200000", "annealing iterations");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  dsn::PlacementOptimizerConfig opt;
  opt.iterations = cli.get_uint("iters");
  opt.seed = cli.get_uint("seed");
  const dsn::MachineRoomConfig room;

  dsn::Table table({"topology", "linear total [m]", "optimized total [m]",
                    "improvement", "opt avg [m]"});
  for (const std::string family : {"torus", "random", "dsn", "dsn-bidir"}) {
    const dsn::Topology topo = dsn::make_topology_by_name(family, n, opt.seed);
    const auto placed = dsn::optimize_placement(topo, room, opt);
    const auto report =
        dsn::compute_cable_report(topo, dsn::FloorLayout(topo, room, placed.slot_of));
    table.row()
        .cell(family)
        .cell(placed.initial_total_m, 0)
        .cell(placed.optimized_total_m, 0)
        .cell(std::to_string(static_cast<int>(
                  100.0 * (1.0 - placed.optimized_total_m /
                                     std::max(1.0, placed.initial_total_m)) +
                  0.5)) +
              "%")
        .cell(report.average_m);
  }
  table.print(std::cout, "Cabinet placement optimization at n = " + std::to_string(n) +
                             " (" + std::to_string(opt.iterations) + " SA iterations)");
  std::cout << "Note: the 'linear total' column uses slot-index placement, which for\n"
               "tori differs from the natural 2-D tiling used in Figure 9.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
