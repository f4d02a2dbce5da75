// Topology explorer: dump the structure of a DSN — level assignment, shortcut
// table, super nodes, degree histogram — and trace the three-phase custom
// route between any two nodes. Useful for understanding the construction of
// §IV-B and for debugging routing changes.
//
//   ./examples/example_topology_explorer --n 32 --src 3 --dst 27
#include <iostream>
#include <string>
#include <vector>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/topology/dsn.hpp"

int main(int argc, char** argv) {
  dsn::Cli cli("Explore the structure of a DSN-x-n and trace custom routes.");
  cli.add_flag("n", "32", "network size");
  cli.add_flag("x", "0", "shortcut-set size (0 = default p-1)");
  cli.add_flag("src", "3", "route source");
  cli.add_flag("dst", "27", "route destination");
  cli.add_flag("dump_nodes", "true", "print the per-node structure table");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint32("n");
  const auto x_flag = cli.get_uint32("x");
  const dsn::Dsn d(n, x_flag == 0 ? dsn::dsn_default_x(n) : x_flag);

  std::cout << "DSN-" << d.x() << "-" << d.n() << ": p = " << d.p() << ", r = " << d.r()
            << ", super nodes = " << (d.n() + d.p() - 1) / d.p() << "\n\n";

  if (cli.get_bool("dump_nodes")) {
    dsn::Table table({"node", "super", "level", "height", "shortcut ->", "span",
                      "incoming", "degree"});
    // Sources of the shortcuts into each node, in ascending order.
    std::vector<std::string> incoming(n);
    for (dsn::NodeId i = 0; i < n; ++i) {
      const dsn::NodeId sc = d.shortcut_target(i);
      if (sc == dsn::kInvalidNode) continue;
      if (!incoming[sc].empty()) incoming[sc] += ",";
      incoming[sc] += std::to_string(i);
    }
    for (dsn::NodeId i = 0; i < n; ++i) {
      const dsn::NodeId sc = d.shortcut_target(i);
      std::string span = "-";
      std::string target = "-";
      if (sc != dsn::kInvalidNode) {
        target = std::to_string(sc);
        span = std::to_string((sc + n - i) % n);
      }
      table.row()
          .cell(static_cast<std::uint64_t>(i))
          .cell(static_cast<std::uint64_t>(d.super_node(i)))
          .cell(static_cast<std::uint64_t>(d.level(i)))
          .cell(static_cast<std::uint64_t>(d.height(i)))
          .cell(target)
          .cell(span)
          .cell(incoming[i].empty() ? "-" : incoming[i])
          .cell(static_cast<std::uint64_t>(d.topology().graph.degree(i)));
    }
    table.print(std::cout, "Per-node structure");
  }

  const auto deg = dsn::compute_degree_stats(d.topology().graph);
  std::cout << "degree histogram:";
  for (std::size_t k = 0; k < deg.histogram.size(); ++k) {
    if (deg.histogram[k] > 0) std::cout << "  deg " << k << ": " << deg.histogram[k];
  }
  std::cout << "  (avg " << deg.avg_degree << ")\n\n";

  const auto src = cli.get_uint32("src");
  const auto dst = cli.get_uint32("dst");
  const dsn::DsnRouter router(d);
  const dsn::Route route = router.route(src, dst);
  std::cout << "custom route " << src << " -> " << dst << " (" << route.length()
            << " hops):\n";
  for (const auto& hop : route.hops) {
    const char* phase = hop.phase == dsn::RoutePhase::kPreWork  ? "PRE-WORK"
                        : hop.phase == dsn::RoutePhase::kMain ? "MAIN"
                                                              : "FINISH";
    const char* kind = hop.kind == dsn::HopKind::kPred     ? "pred"
                       : hop.kind == dsn::HopKind::kSucc   ? "succ"
                       : hop.kind == dsn::HopKind::kShortcut ? "shortcut"
                                                             : "express";
    std::cout << "  " << hop.from << " -> " << hop.to << "  [" << phase << ", " << kind
              << ", level " << d.level(hop.from) << " -> " << d.level(hop.to) << "]\n";
  }
  const auto bfs = dsn::bfs_distances(d.topology().graph, src);
  std::cout << "graph shortest path: " << bfs[dst] << " hops; custom route: "
            << route.length() << " hops\n";
  return 0;
}
