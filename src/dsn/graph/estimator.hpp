// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling and shard merges must be pure functions of (graph, config),
// never of thread count or timing.
//
// Sampled path/load estimator for the shortcut-placement optimizer (dsn/opt).
// A SampledPathEstimator fixes a seeded sample of BFS sources and prices each
// candidate graph with one exact sampled sweep of their canonical
// shortest-path trees. There is no incremental path: a swapped shortcut lies
// on most sampled trees of a small-world graph (DESIGN §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/graph/csr.hpp"

namespace dsn {

struct EstimatorConfig {
  /// BFS sources sampled without replacement. 0 = auto: all n sources when
  /// n <= 1024 (the estimate is then exact), else 128.
  std::uint32_t sample_sources = 0;
  /// Seed for the source sample (independent of the annealing seed).
  std::uint64_t seed = 0x5eed;
};

/// Aggregate estimate over the sampled sources. With sample_sources == n the
/// ASPL equals compute_path_stats().avg_shortest_path exactly.
struct EstimateView {
  double aspl = 0.0;
  std::uint64_t sum_hops = 0;         ///< over ordered (sampled s, t != s) pairs
  std::uint64_t reachable_pairs = 0;  ///< ditto
  bool sample_connected = true;       ///< every sampled source reached all others
  /// Max per-link load over the sampled sources' canonical shortest-path
  /// trees, each destination weighing 1 (tree loads, not routing-function
  /// loads: deterministic min-id parents, no path splitting).
  std::uint64_t max_link_load = 0;
  /// max_link_load scaled to all n sources and normalized per ordered pair:
  /// max_link_load * n / (S * (n - 1)).
  double max_normalized_load = 0.0;
  double throughput_bound = 0.0;  ///< 1 / max_normalized_load
};

/// Seeded sample of `count` distinct sources from [0, n), ascending.
/// count >= n returns all of [0, n).
std::vector<NodeId> sample_sources(NodeId n, std::uint32_t count, std::uint64_t seed);

/// One sweep of canonical shortest-path trees over a source set.
struct TreeLoads {
  /// Per-link loads, indexed by the CsrView's link ids: every node v reached
  /// from a source routes to it through its canonical parent, the minimum-id
  /// neighbor at distance d(v) - 1 (ties on parallel links broken by minimum
  /// link id), and adds 1 to each link on that path.
  std::vector<std::int64_t> loads;
  std::uint64_t sum_hops = 0;         ///< over ordered (source, t != source) pairs
  std::uint64_t reachable_pairs = 0;  ///< ditto
};

/// Sharded 64-lane MS-BFS under the global thread pool; per-shard integer
/// accumulators merged in shard order, so the result is identical for any
/// thread count. O(S * (n + m)).
TreeLoads compute_tree_loads(const CsrView& csr, std::span<const NodeId> sources);

class SampledPathEstimator {
 public:
  /// Sampled sweep of `csr` (the committed graph; not counted in
  /// full_sweeps()). Candidate graphs must keep its node and link counts.
  SampledPathEstimator(const CsrView& csr, const EstimatorConfig& cfg);

  const std::vector<NodeId>& sources() const { return sources_; }
  const EstimateView& current() const { return current_; }
  const std::vector<std::int64_t>& link_loads() const { return committed_.loads; }

  /// Price candidate graph `next` with one sampled sweep. The result is held
  /// pending until commit() or discard().
  const EstimateView& evaluate(const CsrView& next);

  /// Adopt the pending candidate (it is now the committed graph) / drop it
  /// (the swap was rejected and undone).
  void commit();
  void discard();

  /// Sweeps run by evaluate().
  std::uint64_t full_sweeps() const { return full_sweeps_; }

 private:
  NodeId n_ = 0;
  std::vector<NodeId> sources_;
  TreeLoads committed_;
  EstimateView current_;
  TreeLoads pending_;
  EstimateView pending_view_;
  bool has_pending_ = false;
  std::uint64_t full_sweeps_ = 0;
};

}  // namespace dsn
