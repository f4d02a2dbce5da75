// Ablation: the §V topology extensions.
//  - DSN-D-x: express local links reduce the diameter toward 7/4 p and the
//    routing diameter toward 2p (§V-B);
//  - DSN-E: Up/Extra links enable deadlock-free custom routing (Theorem 3) —
//    we report the CDG sizes and acyclicity, with the unprotected basic
//    scheme as the negative control;
//  - flexible DSN (§V-C): minor nodes barely change diameter/ASPL.
#include <iostream>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Ablation: DSN-D / DSN-E / flexible DSN extensions (Section V).");
  cli.add_flag("n", "512", "network size");
  cli.add_flag("cdg_n", "128", "network size for the CDG analysis (O(n^2) routes)");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto cdg_n = cli.get_uint32("cdg_n");

  {
    dsn::Table table({"topology", "links", "avg deg", "diameter", "ASPL",
                      "route diam", "E[route]"});
    // Only route lengths are printed: skip the minimal witness search on a
    // cyclic channel dependency graph.
    dsn::analyze::RouteAnalysisOptions lengths_only;
    lengths_only.find_min_cycle = false;
    const dsn::Dsn base(n, dsn::dsn_default_x(n));
    {
      const auto paths = dsn::compute_path_stats(base.topology().graph);
      const auto routes = dsn::analyze::analyze_dsn_routes(
          base, dsn::analyze::ChannelScheme::kBasic, lengths_only);
      table.row()
          .cell("DSN (basic)")
          .cell(static_cast<std::uint64_t>(base.topology().graph.num_links()))
          .cell(base.topology().graph.average_degree())
          .cell(static_cast<std::uint64_t>(paths.diameter))
          .cell(paths.avg_shortest_path)
          .cell(static_cast<std::uint64_t>(routes.max_hops))
          .cell(routes.avg_hops);
    }
    for (std::uint32_t xd = 1; xd <= 3; ++xd) {
      const dsn::DsnD dd(n, xd);
      const auto paths = dsn::compute_path_stats(dd.topology().graph);
      const auto routes = dsn::analyze::analyze_dsn_d_routes(dd, lengths_only);
      table.row()
          .cell("DSN-D-" + std::to_string(xd) + " (q=" + std::to_string(dd.q()) + ")")
          .cell(static_cast<std::uint64_t>(dd.topology().graph.num_links()))
          .cell(dd.topology().graph.average_degree())
          .cell(static_cast<std::uint64_t>(paths.diameter))
          .cell(paths.avg_shortest_path)
          .cell(static_cast<std::uint64_t>(routes.max_hops))
          .cell(routes.avg_hops);
    }
    {
      const dsn::DsnE de(n);
      const auto paths = dsn::compute_path_stats(de.topology().graph);
      table.row()
          .cell("DSN-E")
          .cell(static_cast<std::uint64_t>(de.topology().graph.num_links()))
          .cell(de.topology().graph.average_degree())
          .cell(static_cast<std::uint64_t>(paths.diameter))
          .cell(paths.avg_shortest_path)
          .cell("-")
          .cell("-");
    }
    {
      // Flexible DSN: n majors plus 4 minors spliced in.
      const dsn::FlexDsn flex(n, dsn::dsn_default_x(n), {10, 20, 30, 40});
      const auto paths = dsn::compute_path_stats(flex.topology().graph);
      const auto routes = dsn::analyze::analyze_route_function(
          flex.topology().graph,
          [&](dsn::NodeId s, dsn::NodeId t, dsn::Route& out) {
            out = dsn::route_dsn_flex(flex, s, t);
          },
          [](const dsn::Route& r, std::vector<dsn::Channel>& out) {
            dsn::dsn_route_channels_basic(r, out);
          },
          /*hop_bound=*/0, /*hop_bound_law=*/{}, lengths_only);
      table.row()
          .cell("DSN-flex (+4 minors)")
          .cell(static_cast<std::uint64_t>(flex.topology().graph.num_links()))
          .cell(flex.topology().graph.average_degree())
          .cell(static_cast<std::uint64_t>(paths.diameter))
          .cell(paths.avg_shortest_path)
          .cell(static_cast<std::uint64_t>(routes.max_hops))
          .cell(routes.avg_hops);
    }
    table.print(std::cout, "Section V extensions at n = " + std::to_string(n));
  }

  {
    dsn::Table table({"routing scheme", "channels", "dependencies", "acyclic (deadlock-free)"});
    const dsn::Dsn d(cdg_n, dsn::dsn_default_x(cdg_n));
    const auto basic = dsn::build_dsn_cdg(d, /*extended=*/false);
    const auto extended = dsn::build_dsn_cdg(d, /*extended=*/true);
    table.row()
        .cell("basic (single channel class)")
        .cell(static_cast<std::uint64_t>(basic.num_channels()))
        .cell(static_cast<std::uint64_t>(basic.num_dependencies()))
        .cell(basic.is_acyclic() ? "yes" : "NO (cyclic)");
    table.row()
        .cell("extended (Up/Main/Finish/Extra, Thm 3)")
        .cell(static_cast<std::uint64_t>(extended.num_channels()))
        .cell(static_cast<std::uint64_t>(extended.num_dependencies()))
        .cell(extended.is_acyclic() ? "yes" : "NO (cyclic)");
    table.print(std::cout, "Theorem 3: channel-dependency analysis at n = " +
                               std::to_string(cdg_n));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
