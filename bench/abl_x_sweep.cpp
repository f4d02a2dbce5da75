// Ablation: the shortcut-set size x (DESIGN.md design-choice sweep).
// DSN-x is defined for 1 <= x <= p-1; the paper's theorems require
// x > p - log p. This sweep shows how diameter, ASPL, routing diameter and
// cable length trade off as x shrinks.
#include <iostream>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: shortcut-set size x for DSN-x-n.");
  cli.add_flag("n", "512", "network size");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const std::uint32_t p = dsn::ilog2_ceil(n);

  dsn::Table table({"x", "premise x>p-log p", "links", "avg deg", "diameter", "ASPL",
                    "route diam", "E[route]", "avg cable [m]"});
  // Only route lengths are printed: skip the minimal witness search on the
  // basic scheme's cyclic channel dependency graph.
  dsn::analyze::RouteAnalysisOptions lengths_only;
  lengths_only.find_min_cycle = false;
  for (std::uint32_t x = 1; x <= p - 1; ++x) {
    const dsn::Dsn d(n, x);
    const auto paths = dsn::compute_path_stats(d.topology().graph);
    const auto routes =
        dsn::analyze::analyze_dsn_routes(d, dsn::analyze::ChannelScheme::kBasic, lengths_only);
    const auto cable = dsn::compute_cable_report(d.topology());
    const bool premise = x > p - dsn::ilog2_ceil(p);
    table.row()
        .cell(static_cast<std::uint64_t>(x))
        .cell(premise ? "yes" : "no")
        .cell(static_cast<std::uint64_t>(d.topology().graph.num_links()))
        .cell(d.topology().graph.average_degree())
        .cell(static_cast<std::uint64_t>(paths.diameter))
        .cell(paths.avg_shortest_path)
        .cell(static_cast<std::uint64_t>(routes.max_hops))
        .cell(routes.avg_hops)
        .cell(cable.average_m);
  }
  table.print(std::cout, "Ablation: DSN-x-" + std::to_string(n) +
                             " over the shortcut-set size x (p = " + std::to_string(p) + ")");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
