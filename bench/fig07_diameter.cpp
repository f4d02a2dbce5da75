// Figure 7: diameter vs network size for DSN, 2-D torus and RANDOM (DLN-2-2).
#include <fstream>
#include <iostream>

#include "dsn/analysis/experiments.hpp"
#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Figure 7 reproduction: diameter vs network size (hops).");
  cli.add_flag("sizes", "32,64,128,256,512,1024,2048", "comma-separated switch counts");
  cli.add_flag("seed", "1", "seed for the random topology");
  cli.add_flag("csv", "", "also write the table as CSV to this path");
  if (!cli.parse(argc, argv)) return 0;

  const auto sizes = cli.get_uint32_list("sizes");
  const auto seed = cli.get_uint("seed");

  dsn::Table table({"log2(N)", "N", "2-D Torus", "RANDOM", "DSN"});
  std::vector<std::vector<dsn::GraphSweepPoint>> sweeps;
  for (const auto& family : dsn::paper_topology_trio()) {
    sweeps.push_back(dsn::run_graph_sweep(family, sizes, seed));
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::uint32_t log2n = 0;
    while ((1ull << (log2n + 1)) <= sizes[i]) ++log2n;
    table.row()
        .cell(static_cast<std::uint64_t>(log2n))
        .cell(sizes[i])
        .cell(static_cast<std::uint64_t>(sweeps[0][i].diameter))
        .cell(static_cast<std::uint64_t>(sweeps[1][i].diameter))
        .cell(static_cast<std::uint64_t>(sweeps[2][i].diameter));
  }
  table.print(std::cout, "Figure 7: Diameter vs network size (hops)");
  if (!cli.get("csv").empty()) {
    std::ofstream(cli.get("csv")) << table.to_csv();
    std::cout << "wrote " << cli.get("csv") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
