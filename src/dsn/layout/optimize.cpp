#include "dsn/layout/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dsn/common/math.hpp"
#include "dsn/common/rng.hpp"

namespace dsn {

namespace {

/// Metropolis temperature: start (meters of cable, roughly one hop) and the
/// factor applied after every proposal.
constexpr double kInitialTemperatureM = 4.0;
constexpr double kCoolingPerIteration = 0.999975;

/// Slot geometry shared by the optimizer and the report: slot s sits in
/// cabinet s / switches_per_cabinet on the q = ceil(sqrt m) grid.
struct SlotGeometry {
  std::uint32_t per_cabinet;
  std::uint32_t cols;

  std::pair<std::uint32_t, std::uint32_t> cabinet_of(std::uint32_t slot) const {
    const std::uint32_t cab = slot / per_cabinet;
    return {cab / cols, cab % cols};
  }
};

SlotGeometry make_geometry(std::uint32_t n, const MachineRoomConfig& room) {
  const auto cabinets =
      static_cast<std::uint32_t>(ceil_div(n, room.switches_per_cabinet));
  const auto rows = static_cast<std::uint32_t>(isqrt_ceil(cabinets));
  const auto cols = static_cast<std::uint32_t>(ceil_div(cabinets, rows));
  return {room.switches_per_cabinet, cols};
}

double slot_cable_m(const SlotGeometry& geo, const MachineRoomConfig& room,
                    std::uint32_t slot_a, std::uint32_t slot_b) {
  const auto [ra, ca] = geo.cabinet_of(slot_a);
  const auto [rb, cb] = geo.cabinet_of(slot_b);
  if (ra == rb && ca == cb) return room.intra_cabinet_cable_m;
  const double dr = std::abs(static_cast<double>(ra) - rb);
  const double dc = std::abs(static_cast<double>(ca) - cb);
  return dc * room.cabinet_width_m + dr * room.cabinet_depth_m +
         room.inter_cabinet_overhead_m;
}

/// Total cable length of the links incident to `node` under the placement.
double incident_cost(const Topology& topo, const SlotGeometry& geo,
                     const MachineRoomConfig& room,
                     const std::vector<std::uint32_t>& slot_of, NodeId node) {
  double cost = 0.0;
  for (const AdjHalf& h : topo.graph.neighbors(node)) {
    cost += slot_cable_m(geo, room, slot_of[node], slot_of[h.to]);
  }
  return cost;
}

}  // namespace

CableReport compute_cable_report_with_slots(const Topology& topo,
                                            const MachineRoomConfig& room,
                                            const std::vector<std::uint32_t>& slot_of) {
  DSN_REQUIRE(slot_of.size() == topo.num_nodes(), "placement size mismatch");
  const SlotGeometry geo = make_geometry(topo.num_nodes(), room);
  CableReport report;
  report.per_link_m.reserve(topo.graph.num_links());
  for (LinkId l = 0; l < topo.graph.num_links(); ++l) {
    const auto [u, v] = topo.graph.link_endpoints(l);
    const double len = slot_cable_m(geo, room, slot_of[u], slot_of[v]);
    report.per_link_m.push_back(len);
    report.total_m += len;
    report.max_m = std::max(report.max_m, len);
    const auto [ru, cu] = geo.cabinet_of(slot_of[u]);
    const auto [rv, cv] = geo.cabinet_of(slot_of[v]);
    if (ru == rv && cu == cv)
      ++report.intra_cabinet_links;
    else
      ++report.inter_cabinet_links;
  }
  report.average_m = topo.graph.num_links() == 0
                         ? 0.0
                         : report.total_m / static_cast<double>(topo.graph.num_links());
  return report;
}

OptimizedPlacement optimize_placement(const Topology& topo,
                                      const MachineRoomConfig& room,
                                      const PlacementOptimizerConfig& config) {
  const NodeId n = topo.num_nodes();
  DSN_REQUIRE(n >= 2, "nothing to optimize");
  const SlotGeometry geo = make_geometry(n, room);

  OptimizedPlacement result;
  result.slot_of.resize(n);
  std::iota(result.slot_of.begin(), result.slot_of.end(), 0);
  result.initial_total_m =
      compute_cable_report_with_slots(topo, room, result.slot_of).total_m;

  Rng rng(config.seed);
  double temperature = kInitialTemperatureM;
  auto& slot_of = result.slot_of;

  for (std::uint64_t it = 0; it < config.iterations; ++it) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    auto b = static_cast<NodeId>(rng.next_below(n - 1));
    if (b >= a) ++b;

    const double before = incident_cost(topo, geo, room, slot_of, a) +
                          incident_cost(topo, geo, room, slot_of, b);
    std::swap(slot_of[a], slot_of[b]);
    double after = incident_cost(topo, geo, room, slot_of, a) +
                   incident_cost(topo, geo, room, slot_of, b);
    // Links directly between a and b are counted twice on both sides, so the
    // delta is still exact.
    const double delta = after - before;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / std::max(1e-9, temperature));
    if (!accept) std::swap(slot_of[a], slot_of[b]);
    temperature *= kCoolingPerIteration;
  }

  result.optimized_total_m =
      compute_cable_report_with_slots(topo, room, slot_of).total_m;
  return result;
}

}  // namespace dsn
