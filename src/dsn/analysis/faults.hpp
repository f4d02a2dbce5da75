// Fault-tolerance analysis: degrade a topology by removing random links (or
// switches) and measure connectivity and path-length inflation. The paper's
// introduction motivates low-degree topologies partly by "simple management
// mechanisms for faults"; this module quantifies how gracefully each topology
// degrades.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/graph/metrics.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

struct FaultTrialResult {
  double fraction_failed = 0.0;
  double connected_rate = 0.0;       ///< fraction of trials that stayed connected
  double avg_diameter = 0.0;         ///< over connected trials
  double avg_aspl = 0.0;             ///< over connected trials
  std::uint32_t trials = 0;
  std::uint32_t connected_trials = 0;
};

/// Remove `round(fraction * links)` random links per trial and evaluate.
FaultTrialResult evaluate_link_faults(const Topology& topo, double fraction,
                                      std::uint32_t trials, std::uint64_t seed);

/// Remove `round(fraction * nodes)` random switches (with their links) per
/// trial and evaluate the surviving subgraph.
FaultTrialResult evaluate_switch_faults(const Topology& topo, double fraction,
                                        std::uint32_t trials, std::uint64_t seed);

/// Path statistics restricted to an `alive` node subset: connected means
/// every alive node reaches every other alive node; diameter/ASPL are over
/// alive pairs only (all zero when disconnected). Runs ceil(alive/64)
/// bit-parallel MS-BFS sweeps over a CSR snapshot instead of one BFS per
/// node, sharded by ThreadPool::shard_count; per-shard accumulators are
/// merged in shard order, so the result is deterministic for any worker
/// count.
struct SubsetPathStats {
  bool connected = false;
  std::uint32_t diameter = 0;
  double aspl = 0.0;
};

SubsetPathStats subset_path_stats(const Graph& g, const std::vector<std::uint8_t>& alive);

}  // namespace dsn
