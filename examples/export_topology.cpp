// Export a topology for external tooling: Graphviz DOT (for rendering with
// `dot`/`circo`) and the plain edge-list format (for custom analysis), with a
// demonstration of the lossless round trip.
//
//   ./examples/example_export_topology --topology dsn --n 32 --out /tmp/dsn32
#include <fstream>
#include <iostream>
#include <sstream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/io.hpp"

int main(int argc, char** argv) {
  dsn::Cli cli("Export a topology as Graphviz DOT and edge list.");
  cli.add_flag("topology", "dsn", "topology family");
  cli.add_flag("n", "32", "number of switches");
  cli.add_flag("seed", "1", "seed");
  cli.add_flag("out", "", "output path prefix (writes <out>.dot and <out>.edges);"
                          " empty prints to stdout");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const dsn::Topology topo =
      dsn::make_topology_by_name(cli.get("topology"), n, cli.get_uint("seed"));

  const std::string dot = dsn::to_dot(topo);
  const std::string edges = dsn::to_edge_list(topo);

  const std::string prefix = cli.get("out");
  if (prefix.empty()) {
    std::cout << dot << "\n" << edges;
  } else {
    std::ofstream(prefix + ".dot") << dot;
    std::ofstream(prefix + ".edges") << edges;
    std::cout << "wrote " << prefix << ".dot and " << prefix << ".edges\n";
  }

  // Demonstrate the lossless round trip.
  const dsn::Topology parsed = dsn::parse_edge_list(edges);
  const auto a = dsn::compute_path_stats(topo.graph);
  const auto b = dsn::compute_path_stats(parsed.graph);
  std::cout << "round trip check: " << parsed.name << ", " << parsed.graph.num_links()
            << " links, diameter " << b.diameter << " (original " << a.diameter
            << ") — " << (a.diameter == b.diameter ? "ok" : "MISMATCH") << "\n";
  return 0;
}
