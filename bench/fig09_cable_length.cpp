// Figure 9: average cable length vs network size for DSN, 2-D torus and
// RANDOM (DLN-2-2), under the §VI-B machine-room layout model (cabinets on a
// 2-D grid, 0.6 m x 2.1 m, 16 switches/cabinet, Manhattan distances, 2 m
// intra-cabinet cables, 2 m inter-cabinet wiring overhead).
#include <fstream>
#include <iostream>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Figure 9 reproduction: average cable length vs network size.");
  cli.add_flag("sizes", "32,64,128,256,512,1024,2048", "comma-separated switch counts");
  cli.add_flag("seed", "1", "seed for the random topology");
  cli.add_flag("totals", "false", "also print aggregate cable length per topology");
  cli.add_flag("csv", "", "also write the table as CSV to this path");
  if (!cli.parse(argc, argv)) return 0;

  const auto sizes = cli.get_uint32_list("sizes");
  const auto seed = cli.get_uint("seed");

  std::vector<std::vector<dsn::GraphSweepPoint>> sweeps;
  for (const auto& family : dsn::paper_topology_trio()) {
    sweeps.push_back(dsn::run_graph_sweep(family, sizes, seed));
  }

  dsn::Table table({"log2(N)", "N", "2-D Torus [m]", "RANDOM [m]", "DSN [m]",
                    "DSN vs RANDOM"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::uint32_t log2n = 0;
    while ((1ull << (log2n + 1)) <= sizes[i]) ++log2n;
    const double reduction =
        100.0 * (1.0 - sweeps[2][i].avg_cable_m / sweeps[1][i].avg_cable_m);
    table.row()
        .cell(static_cast<std::uint64_t>(log2n))
        .cell(sizes[i])
        .cell(sweeps[0][i].avg_cable_m)
        .cell(sweeps[1][i].avg_cable_m)
        .cell(sweeps[2][i].avg_cable_m)
        .cell(std::string("-")
                  .append(std::to_string(static_cast<int>(reduction + 0.5)))
                  .append("%"));
  }
  table.print(std::cout, "Figure 9: Average cable length vs network size");
  if (!cli.get("csv").empty()) {
    std::ofstream(cli.get("csv")) << table.to_csv();
    std::cout << "wrote " << cli.get("csv") << "\n";
  }

  if (cli.get_bool("totals")) {
    dsn::Table totals({"N", "2-D Torus total [m]", "RANDOM total [m]", "DSN total [m]"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      totals.row()
          .cell(sizes[i])
          .cell(sweeps[0][i].total_cable_m, 0)
          .cell(sweeps[1][i].total_cable_m, 0)
          .cell(sweeps[2][i].total_cable_m, 0);
    }
    totals.print(std::cout, "Aggregate cable length");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
