// Shared link-load throughput bound over canonical shortest-path trees.
//
// The route analyzer's ChannelLoadStats counts routing-function routes; this
// estimator counts the loads a topology's *canonical BFS trees* put on each
// physical link — a routing-independent lower bound on congestion that any
// minimal routing at best equals. The optimizer (dsn/opt) anneals against it
// via SampledPathEstimator, one sampled sweep per candidate; this wrapper is
// the one-shot view for analyzer/tool consumers, exact (all sources) or
// sampled. Both run the same sweep (dsn::compute_tree_loads) with the same
// normalization, so numbers are comparable across dsn-lint commands. The
// total / max / mean / Gini summary is summarize_loads, which the route
// analyzer's channel loads use too.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/graph/csr.hpp"

namespace dsn::analyze {

/// Total, maximum, mean and Gini index of a load vector: the summary both the
/// route analyzer's channel loads and the tree-load bound report. Each caller
/// normalizes max_load its own way.
struct LoadSummary {
  std::uint64_t total = 0;
  std::uint64_t max_load = 0;
  std::size_t max_index = 0;  ///< lowest index attaining max_load
  double mean = 0.0;          ///< total / number of loads; 0 when there are none
  double gini = 0.0;          ///< load-imbalance index in [0, 1)
};

LoadSummary summarize_loads(std::vector<std::uint64_t> loads);

/// Per-link load statistics over the sampled sources' canonical trees.
/// Normalization matches dsn::EstimateView: max_normalized scales the sampled
/// max to all n sources and divides by ordered pairs per source, so the
/// throughput bound stays comparable between exact and sampled runs.
struct TreeLoadBound {
  NodeId n = 0;
  std::uint32_t sample_sources = 0;  ///< number of tree roots counted
  std::size_t links = 0;
  std::uint64_t total = 0;           ///< sum of loads over all links
  std::uint64_t max_load = 0;
  LinkId max_link = 0;               ///< a link attaining max_load (lowest id)
  double mean_load = 0.0;
  double gini = 0.0;                 ///< load-imbalance index in [0, 1)
  double max_normalized = 0.0;       ///< max_load * n / (S * (n - 1))
  double throughput_bound = 0.0;     ///< 1 / max_normalized
};

/// Tree-load bound over an explicit source set (deterministic for any thread
/// count; see dsn::compute_tree_loads).
TreeLoadBound compute_tree_load_bound(const CsrView& csr,
                                      std::span<const NodeId> sources);

/// Exact variant: every node is a tree root.
TreeLoadBound compute_tree_load_bound(const CsrView& csr);

Json to_json(const TreeLoadBound& bound);

}  // namespace dsn::analyze
