// Layout optimization: assign switches to cabinet slots to minimize total
// cable length, via simulated annealing over the placement permutation.
// This reproduces the context of the paper's §III discussion of [11]
// ("layout-conscious random topologies... optimizes the layout after
// randomizing the links"): even with an optimized placement, random-shortcut
// topologies keep paying for their long links, while DSN's linear placement
// is already near-optimal.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/layout/layout.hpp"

namespace dsn {

struct PlacementOptimizerConfig {
  std::uint64_t iterations = 200'000;
  std::uint64_t seed = 1;
};

struct OptimizedPlacement {
  /// slot_of[node] = cabinet slot index (slots fill cabinets linearly in the
  /// same q = ceil(sqrt m) grid as PlacementStrategy::kLinear).
  std::vector<std::uint32_t> slot_of;
  double initial_total_m = 0.0;
  double optimized_total_m = 0.0;
};

/// Anneal the node->slot permutation starting from the identity (linear)
/// placement, pricing every move with FloorLayout's cable model (a
/// FloorLayout built from slot_of reports the result). Deterministic for a
/// given seed.
OptimizedPlacement optimize_placement(const Topology& topo,
                                      const MachineRoomConfig& room,
                                      const PlacementOptimizerConfig& config = {});

}  // namespace dsn
