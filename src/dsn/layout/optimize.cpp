#include "dsn/layout/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dsn/common/rng.hpp"

namespace dsn {

namespace {

/// Metropolis temperature: start (meters of cable, roughly one hop) and the
/// factor applied after every proposal.
constexpr double kInitialTemperatureM = 4.0;
constexpr double kCoolingPerIteration = 0.999975;

/// Total cable length of the links incident to `node` under the layout.
double incident_cost(const Topology& topo, const FloorLayout& layout, NodeId node) {
  double cost = 0.0;
  for (const AdjHalf& h : topo.graph.neighbors(node)) {
    cost += layout.cable_length_m(node, h.to);
  }
  return cost;
}

}  // namespace

OptimizedPlacement optimize_placement(const Topology& topo,
                                      const MachineRoomConfig& room,
                                      const PlacementOptimizerConfig& config) {
  const NodeId n = topo.num_nodes();
  DSN_REQUIRE(n >= 2, "nothing to optimize");

  OptimizedPlacement result;
  result.slot_of.resize(n);
  std::iota(result.slot_of.begin(), result.slot_of.end(), 0);
  FloorLayout layout(topo, room, result.slot_of);
  result.initial_total_m = compute_cable_report(topo, layout).total_m;

  Rng rng(config.seed);
  double temperature = kInitialTemperatureM;
  auto& slot_of = result.slot_of;

  for (std::uint64_t it = 0; it < config.iterations; ++it) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    auto b = static_cast<NodeId>(rng.next_below(n - 1));
    if (b >= a) ++b;

    const double before = incident_cost(topo, layout, a) + incident_cost(topo, layout, b);
    layout.swap_nodes(a, b);
    const double after = incident_cost(topo, layout, a) + incident_cost(topo, layout, b);
    // Links directly between a and b are counted twice on both sides, so the
    // delta is still exact.
    const double delta = after - before;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / std::max(1e-9, temperature));
    if (accept) {
      std::swap(slot_of[a], slot_of[b]);
    } else {
      layout.swap_nodes(a, b);
    }
    temperature *= kCoolingPerIteration;
  }

  result.optimized_total_m = compute_cable_report(topo, layout).total_m;
  return result;
}

}  // namespace dsn
