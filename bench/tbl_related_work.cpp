// §III related-work table: measured diameter-and-degree of the shuffle-based
// and hierarchical topologies the paper cites, next to DSN at comparable
// sizes. Paper quotes: De Bruijn 12-and-4 at 3,072 vertices, Kautz 11-and-4,
// CCC 23-and-3 (~4,608 vertices).
#include <iostream>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/related.hpp"

namespace {

void add_row(dsn::Table& table, const dsn::Topology& topo) {
  const auto deg = dsn::compute_degree_stats(topo.graph);
  const auto paths = dsn::compute_path_stats(topo.graph);
  table.row()
      .cell(topo.name)
      .cell(static_cast<std::uint64_t>(topo.num_nodes()))
      .cell(static_cast<std::uint64_t>(paths.diameter))
      .cell(static_cast<std::uint64_t>(deg.max_degree))
      .cell(deg.avg_degree)
      .cell(paths.avg_shortest_path);
}

int run(int argc, char** argv) {
  dsn::Cli cli("Section III related-work topologies: measured diameter-and-degree.");
  if (!cli.parse(argc, argv)) return 0;

  dsn::Table table({"topology", "N", "diameter", "max deg", "avg deg", "ASPL"});
  add_row(table, dsn::make_generalized_de_bruijn(3072, 2));  // paper: 12-and-4
  add_row(table, dsn::make_generalized_kautz(3072, 2));      // paper: 11-and-4
  add_row(table, dsn::make_cube_connected_cycles(9));        // 4608 nodes; paper: 23-and-3
  add_row(table, dsn::make_dsn(3072, dsn::dsn_default_x(3072)));
  add_row(table, dsn::make_dsn(4608, dsn::dsn_default_x(4608)));
  table.print(std::cout,
              "Related low-degree topologies (paper Section III) vs DSN");
  std::cout << "Paper quotes: De Bruijn 12-and-4 @3072, Kautz 11-and-4, CCC 23-and-3.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
