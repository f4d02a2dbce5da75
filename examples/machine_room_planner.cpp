// Machine-room cabling planner: given a switch count, lay out every candidate
// topology on the cabinet grid of §VI-B and report the cabling bill plus the
// hop-count metrics — the deployment trade-off study a datacenter architect
// would run before choosing an interconnect.
//
//   ./examples/example_machine_room_planner [n] [switches_per_cabinet]
#include <cstdlib>
#include <iostream>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/table.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 1024;
  dsn::MachineRoomConfig room;
  if (argc > 2) room.switches_per_cabinet = static_cast<std::uint32_t>(std::atoi(argv[2]));

  std::cout << "Machine room plan for " << n << " switches, "
            << room.switches_per_cabinet << " switches/cabinet\n"
            << "cabinet: " << room.cabinet_width_m << " m x " << room.cabinet_depth_m
            << " m (incl. aisle), intra-cabinet cable " << room.intra_cabinet_cable_m
            << " m, inter-cabinet overhead " << room.inter_cabinet_overhead_m << " m\n\n";

  dsn::Table table({"topology", "cabinets", "grid", "links", "avg cable [m]",
                    "max cable [m]", "total cable [m]", "diameter", "ASPL"});
  for (const std::string family :
       {"torus", "torus3d", "random", "dsn", "dsn-d", "ring", "dln"}) {
    dsn::Topology topo;
    try {
      topo = dsn::make_topology_by_name(family, n);
    } catch (const dsn::PreconditionError& e) {
      std::cout << "(skipping " << family << ": " << e.what() << ")\n";
      continue;
    }
    const dsn::FloorLayout layout(topo, room, dsn::default_placement(topo));
    const auto cable = dsn::compute_cable_report(topo, layout);
    const auto paths = dsn::compute_path_stats(topo.graph);
    table.row()
        .cell(topo.name)
        .cell(static_cast<std::uint64_t>(layout.num_cabinets()))
        .cell(std::to_string(layout.rows()) + "x" + std::to_string(layout.cols()))
        .cell(static_cast<std::uint64_t>(topo.graph.num_links()))
        .cell(cable.average_m)
        .cell(cable.max_m)
        .cell(cable.total_m, 0)
        .cell(static_cast<std::uint64_t>(paths.diameter))
        .cell(paths.avg_shortest_path);
  }
  table.print(std::cout, "Cabling bill of materials");

  std::cout << "Reading: DSN keeps cable close to the torus while cutting the\n"
               "diameter/ASPL to near the random topology — the paper's trade-off.\n";
  return 0;
}
