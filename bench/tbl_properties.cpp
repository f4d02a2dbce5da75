// Structural properties table: empirical verification of the paper's Facts
// and Theorems on the basic DSN across network sizes.
//
//   Fact 1    degrees in {2,3,4,5}, average <= 4, at most p degree-5 nodes
//   Theorem 1 diameter <= 2.5p + r, routing diameter <= 3p + r (x > p - log p)
//   Theorem 2 E[route length] <= 2p, E[shortest path] <= 1.5p
#include <iostream>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Empirical verification of Facts 1-3 and Theorems 1-2 on basic DSN.");
  cli.add_flag("sizes", "32,64,128,256,512,1024,2048", "comma-separated switch counts");
  if (!cli.parse(argc, argv)) return 0;

  const auto sizes = cli.get_uint32_list("sizes");
  dsn::Table table({"N", "p", "r", "max deg", "#deg5", "p bound", "diam",
                    "2.5p+r", "route diam", "3p+r", "E[route]", "2p bound",
                    "ASPL", "1.5p bound"});
  // Only route lengths are printed: skip the minimal witness search on the
  // basic scheme's cyclic channel dependency graph.
  dsn::analyze::RouteAnalysisOptions lengths_only;
  lengths_only.find_min_cycle = false;
  for (const std::uint32_t n : sizes) {
    const dsn::Dsn d(n, dsn::dsn_default_x(n));
    const auto deg = dsn::compute_degree_stats(d.topology().graph);
    const auto paths = dsn::compute_path_stats(d.topology().graph);
    const auto routes =
        dsn::analyze::analyze_dsn_routes(d, dsn::analyze::ChannelScheme::kBasic, lengths_only);

    const std::uint64_t deg5 = deg.histogram.size() > 5 ? deg.histogram[5] : 0;
    table.row()
        .cell(n)
        .cell(static_cast<std::uint64_t>(d.p()))
        .cell(static_cast<std::uint64_t>(d.r()))
        .cell(static_cast<std::uint64_t>(deg.max_degree))
        .cell(deg5)
        .cell(static_cast<std::uint64_t>(d.p()))
        .cell(static_cast<std::uint64_t>(paths.diameter))
        .cell(2.5 * d.p() + d.r(), 1)
        .cell(static_cast<std::uint64_t>(routes.max_hops))
        .cell(static_cast<std::uint64_t>(3 * d.p() + d.r()))
        .cell(routes.avg_hops)
        .cell(static_cast<std::uint64_t>(2 * d.p()))
        .cell(paths.avg_shortest_path)
        .cell(1.5 * d.p(), 1);
  }
  table.print(std::cout,
              "DSN structural properties vs paper bounds (Facts 1-3, Theorems 1-2)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
