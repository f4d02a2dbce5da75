// Ablation: path diversity of the compared topologies — average and minimum
// number of edge-disjoint paths over sampled pairs, and the length spread of
// the first k shortest paths. Diversity feeds both fault tolerance and the
// effectiveness of adaptive routing.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/paths.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: edge-disjoint path diversity and k-shortest path spread.");
  cli.add_flag("n", "128", "network size");
  cli.add_flag("pairs", "60", "sampled (s, t) pairs");
  cli.add_flag("k", "4", "k for k-shortest paths");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto pairs = cli.get_uint("pairs");
  const auto k = static_cast<std::size_t>(cli.get_uint("k"));
  const auto seed = cli.get_uint("seed");

  dsn::Table table({"topology", "avg disjoint", "min disjoint", "edge conn",
                    "avg k-th/1st len"});
  for (const std::string family : {"torus", "random", "dsn", "dsn-bidir", "ring"}) {
    const dsn::Topology topo = dsn::make_topology_by_name(family, n, seed);
    dsn::Rng rng(seed);
    double disjoint_sum = 0;
    std::uint32_t disjoint_min = 0xffffffffu;
    double spread_sum = 0;
    std::uint64_t spread_count = 0;
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const auto s = static_cast<dsn::NodeId>(rng.next_below(n));
      auto t = static_cast<dsn::NodeId>(rng.next_below(n - 1));
      if (t >= s) ++t;
      const std::uint32_t dj = dsn::edge_disjoint_paths(topo.graph, s, t);
      disjoint_sum += dj;
      disjoint_min = std::min(disjoint_min, dj);
      const auto ksp = dsn::yen_k_shortest_paths(topo.graph, s, t, k);
      if (ksp.size() == k) {
        spread_sum += static_cast<double>(ksp.back().size() - 1) /
                      static_cast<double>(ksp.front().size() - 1);
        ++spread_count;
      }
    }
    table.row()
        .cell(family)
        .cell(disjoint_sum / static_cast<double>(pairs))
        .cell(static_cast<std::uint64_t>(disjoint_min))
        .cell(static_cast<std::uint64_t>(dsn::edge_connectivity(topo.graph)))
        .cell(spread_count ? spread_sum / static_cast<double>(spread_count) : 0.0);
  }
  table.print(std::cout, "Path diversity at n = " + std::to_string(n) + " (" +
                             std::to_string(pairs) + " sampled pairs, k = " +
                             std::to_string(k) + ")");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
