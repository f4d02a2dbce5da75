// §VIII claim: "it is possible to exploit the structure of our DSN topologies
// to create a custom routing algorithm with a natural routing logic... the
// routing logic at each switch is expected to be simple and small."
//
// We quantify per-switch routing state:
//  - DSN custom routing: constants (n, p, x) + the node's own shortcut target
//    and level — O(1) words per switch regardless of network size;
//  - up*/down* (what random topologies must use): two next-hop tables indexed
//    by destination — O(n) entries per switch;
//  - fully adaptive minimal: next-hop sets per destination — O(n * degree).
#include <iostream>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Per-switch routing state: DSN custom vs table-based schemes.");
  cli.add_flag("sizes", "64,256,1024,2048", "comma-separated switch counts");
  if (!cli.parse(argc, argv)) return 0;

  dsn::Table table({"N", "scheme", "state/switch [bytes]", "total [KiB]", "growth"});
  for (const std::uint32_t n : cli.get_uint32_list("sizes")) {
    // DSN custom: n, p, x (constants shared) + per-switch level (1 byte) and
    // shortcut target (4 bytes) — the algorithm recomputes everything else.
    const double custom_per_switch = 3 * 4 + 1 + 4;
    // up*/down*: per destination, a next hop for each of the two phases
    // (4 bytes each).
    const double updown_per_switch = 2.0 * 4.0 * n;
    // Fully adaptive minimal: per destination, the set of minimal next hops;
    // average degree ~4 bounded by one 4-byte entry per (dest, candidate)
    // plus a 4-byte offset per destination.
    const dsn::Topology topo = dsn::make_dsn(n, dsn::dsn_default_x(n));
    const dsn::SimRouting routing(topo);
    std::size_t adaptive_entries = 0;
    for (dsn::NodeId t = 0; t < n; ++t) {
      routing.for_each_minimal_next_hop(0, t, [&](dsn::NodeId) { ++adaptive_entries; });
    }
    const double adaptive_per_switch =
        4.0 * static_cast<double>(adaptive_entries) + 4.0 * n;

    const auto add = [&](const char* scheme, double per_switch, const char* growth) {
      table.row()
          .cell(n)
          .cell(scheme)
          .cell(per_switch, 0)
          .cell(per_switch * n / 1024.0, 1)
          .cell(growth);
    };
    add("DSN custom (Fig. 2)", custom_per_switch, "O(1)");
    add("up*/down* tables", updown_per_switch, "O(N)");
    add("minimal adaptive tables", adaptive_per_switch, "O(N*deg)");
  }
  table.print(std::cout,
              "Per-switch routing state (Section VIII 'simple and small' claim)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
