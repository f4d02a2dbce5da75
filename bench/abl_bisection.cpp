// Ablation: estimated bisection width of the compared topologies — the
// throughput-scalability axis that complements the latency results of the
// paper (cf. Jellyfish's random-graph argument).
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/bisection.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: estimated bisection width (KL-refined upper bound).");
  cli.add_flag("sizes", "64,128,256,512", "comma-separated switch counts");
  cli.add_flag("seed", "1", "seed");
  cli.add_flag("starts", "4", "random KL starts per estimate");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = cli.get_uint("seed");
  const std::uint32_t starts = cli.get_uint32("starts");

  dsn::Table table({"N", "topology", "bisection links", "links/node-pair",
                    "per-node"});
  for (const std::uint32_t n : cli.get_uint32_list("sizes")) {
    for (const std::string family : {"torus", "random", "dsn", "dsn-bidir", "ring"}) {
      const dsn::Topology topo = dsn::make_topology_by_name(family, n, seed);
      const auto r = dsn::estimate_bisection(topo.graph, seed, starts);
      table.row()
          .cell(n)
          .cell(family)
          .cell(r.cut_links)
          .cell(static_cast<double>(r.cut_links) /
                    static_cast<double>(topo.graph.num_links()),
                3)
          .cell(r.per_node(), 3);
    }
  }
  table.print(std::cout, "Estimated bisection width (upper bound via Kernighan-Lin)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
