// Zero-load wire-latency synthesis (§I context): combine switch delay
// (~100 ns/hop) and cable propagation (~5 ns/m on the machine-room floor)
// into one end-to-end estimate per topology. Quantifies the paper's argument
// that random topologies' shorter hop counts are not free — their long cables
// add wire delay — while DSN gets the hop savings at torus-like wire cost.
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/wire_latency.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Zero-load latency estimate: router hops + cable propagation.");
  cli.add_flag("sizes", "64,256,1024,2048", "comma-separated switch counts");
  cli.add_flag("router_ns", "100", "per-switch-traversal delay [ns]");
  cli.add_flag("cable_ns_per_m", "5", "cable propagation delay [ns/m]");
  cli.add_flag("seed", "1", "seed");
  if (!cli.parse(argc, argv)) return 0;

  dsn::WireLatencyConfig cfg;
  cfg.router_ns = cli.get_double("router_ns");
  cfg.cable_ns_per_m = cli.get_double("cable_ns_per_m");
  const auto seed = cli.get_uint("seed");

  dsn::Table table({"N", "topology", "avg hops", "avg path cable [m]",
                    "avg latency [ns]", "max [ns]", "wire share"});
  for (const std::uint32_t n : cli.get_uint32_list("sizes")) {
    for (const auto& family : dsn::paper_topology_trio()) {
      const dsn::Topology topo = dsn::make_topology_by_name(family, n, seed);
      const auto stats = dsn::estimate_wire_latency(topo, cfg);
      table.row()
          .cell(n)
          .cell(family)
          .cell(stats.avg_hops)
          .cell(stats.avg_cable_m, 1)
          .cell(stats.avg_latency_ns, 1)
          .cell(stats.max_latency_ns, 1)
          .cell(stats.wire_fraction * 100.0, 1);
    }
  }
  table.print(std::cout,
              "Zero-load end-to-end latency estimate (router " +
                  std::to_string(static_cast<int>(cfg.router_ns)) + " ns/hop, cable " +
                  std::to_string(static_cast<int>(cfg.cable_ns_per_m)) + " ns/m)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
