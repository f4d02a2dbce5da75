// Small-world analysis (§II): clustering coefficient vs average shortest
// path length for the compared topologies, and the routing-stretch comparison
// that motivates DSN's custom routing — Kleinberg's greedy routing pays a
// quadratic factor over the optimum while the DSN custom routing stays within
// a small constant.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/generators.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Small-world metrics and routing stretch (Section II context).");
  cli.add_flag("n", "1024", "network size (square number recommended)");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto seed = cli.get_uint("seed");

  {
    dsn::Table table({"topology", "clustering", "ASPL", "diameter"});
    const auto add = [&](const std::string& label, const dsn::Topology& topo) {
      const auto stats = dsn::compute_path_stats(topo.graph);
      table.row()
          .cell(label)
          .cell(dsn::clustering_coefficient(topo.graph), 4)
          .cell(stats.avg_shortest_path)
          .cell(static_cast<std::uint64_t>(stats.diameter));
    };
    for (const std::string family : {"ring", "torus", "kleinberg", "random", "dsn"}) {
      try {
        add(family, dsn::make_topology_by_name(family, n, seed));
      } catch (const dsn::PreconditionError&) {
        continue;
      }
    }
    // The Watts-Strogatz sweep [20]: lattice -> small-world regime -> random.
    for (const double beta : {0.0, 0.1, 1.0}) {
      add("watts-strogatz b=" + std::to_string(beta).substr(0, 3),
          dsn::make_watts_strogatz(n, 2, beta, seed));
    }
    table.print(std::cout, "Small-world metrics at n = " + std::to_string(n));
  }

  {
    dsn::Table table({"routing", "avg hops", "optimal ASPL", "stretch", "max hops"});
    // Only route lengths are printed: skip the minimal witness search on a
    // cyclic channel dependency graph.
    dsn::analyze::RouteAnalysisOptions lengths_only;
    lengths_only.find_min_cycle = false;
    // Kleinberg grid with greedy routing.
    const auto side = static_cast<std::uint32_t>(dsn::isqrt(n));
    if (side * side == n) {
      const dsn::Topology kb = dsn::make_kleinberg(side, 1, 2.0, seed);
      const auto greedy =
          dsn::analyze::analyze_topology_routes(kb, dsn::analyze::RoutingFamily::kGreedyGrid,
                                                lengths_only);
      const auto opt = dsn::compute_path_stats(kb.graph);
      table.row()
          .cell("Kleinberg greedy")
          .cell(greedy.avg_hops)
          .cell(opt.avg_shortest_path)
          .cell(greedy.avg_hops / opt.avg_shortest_path)
          .cell(static_cast<std::uint64_t>(greedy.max_hops));
    }
    // DSN custom routing.
    const dsn::Dsn d(n, dsn::dsn_default_x(n));
    const auto routes =
        dsn::analyze::analyze_dsn_routes(d, dsn::analyze::ChannelScheme::kBasic, lengths_only);
    const auto opt = dsn::compute_path_stats(d.topology().graph);
    table.row()
        .cell("DSN custom (Fig. 2)")
        .cell(routes.avg_hops)
        .cell(opt.avg_shortest_path)
        .cell(routes.avg_hops / opt.avg_shortest_path)
        .cell(static_cast<std::uint64_t>(routes.max_hops));
    table.print(std::cout,
                "Routing stretch: greedy on Kleinberg vs DSN custom routing");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
