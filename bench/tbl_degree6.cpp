// §VI-B remark: "our DSN with degree 6 surprisingly has shorter average
// cable length than 3-D torus in conventional floor layout". We realize the
// degree-6 DSN as the bidirectional-shortcut variant and compare it to the
// near-cubic 3-D torus across network sizes.
#include <iostream>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/generators.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Degree-6 DSN vs 3-D torus: cable length and path metrics (Section VI-B remark).");
  cli.add_flag("sizes", "64,128,256,512,1024,2048", "comma-separated switch counts");
  if (!cli.parse(argc, argv)) return 0;

  dsn::Table table({"N", "topology", "avg deg", "diameter", "ASPL", "avg cable [m]",
                    "total cable [m]"});
  for (const std::uint32_t n : cli.get_uint32_list("sizes")) {
    for (int which = 0; which < 2; ++which) {
      dsn::Topology topo;
      try {
        topo = which == 0 ? dsn::make_torus_3d_near_cube(n) : dsn::make_dsn_bidir(n);
      } catch (const dsn::PreconditionError&) {
        continue;  // no 3-D factorization for this n
      }
      const auto deg = dsn::compute_degree_stats(topo.graph);
      const auto paths = dsn::compute_path_stats(topo.graph);
      const auto cable = dsn::compute_cable_report(topo);
      table.row()
          .cell(n)
          .cell(topo.name)
          .cell(deg.avg_degree)
          .cell(static_cast<std::uint64_t>(paths.diameter))
          .cell(paths.avg_shortest_path)
          .cell(cable.average_m)
          .cell(cable.total_m, 0);
    }
  }
  table.print(std::cout, "Degree-6 DSN (bidirectional shortcuts) vs 3-D torus");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
