// dsn-slint: deterministic — every random draw happens sequentially on the
// calling thread from a seeded generator; parallel work (estimator sweeps)
// merges in fixed order, so the Pareto front is byte-identical for any
// DSN_THREADS setting (pinned by determinism.opt and the BENCH_opt CI gate).
//
// Shortcut-placement optimizer (paper §VI): simulated annealing over
// double-edge swaps of the LinkRole::kShortcut links, exploring the
// (cable length, ASPL, 1 / throughput-bound) trade-off at *exactly* the
// seed topology's degree sequence — swaps preserve degrees by construction
// (see MutableShortcutSet). Each valid proposal costs one sampled sweep of the
// candidate graph (SampledPathEstimator); cable deltas are exact O(1) lookups
// under the machine-room layout model. Non-dominated placements accumulate in
// a ParetoArchive whose 2-D staircase is the committed-bench artifact.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/opt/pareto.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::opt {

struct OptimizerConfig {
  std::uint64_t seed = 1;
  /// Independent annealing passes; each restarts from the seed placement
  /// with its own scalarization weights and RNG stream, and all passes feed
  /// one shared archive (multi-start beats one long chain on this landscape).
  std::uint32_t passes = 3;
  std::uint32_t iterations = 2000;  ///< proposals per pass
  std::uint32_t plateau = 100;      ///< proposals per temperature step
  EstimatorConfig estimator;
};

struct OptimizerResult {
  std::string topology;
  NodeId n = 0;
  std::size_t links = 0;
  std::size_t shortcuts = 0;
  std::size_t degree_min = 0;
  std::size_t degree_max = 0;
  double degree_avg = 0.0;
  std::uint32_t sample_sources = 0;

  OptPoint seed_point;          ///< the unmodified placement
  std::vector<OptPoint> front;  ///< cable-vs-ASPL staircase (seed included)
  std::size_t archive_size = 0;

  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t invalid = 0;     ///< rejected by swap validity, pre-estimator
  /// Always 0: the estimator has no per-source re-sweeps. Kept only because
  /// bench/e2e/e2e.cpp reads it; not part of the JSON projection.
  std::uint64_t resweeps = 0;
  std::uint64_t full_sweeps = 0; ///< sampled sweeps, one per valid proposal

  /// True when some placement strictly beats the seed on cable at ASPL no
  /// worse than the seed's — the "cable-per-ASPL at equal degree" headline.
  bool beats_seed = false;
  double best_cable_m_at_seed_aspl = 0.0;  ///< min cable with aspl <= seed's
  double cable_saved_pct = 0.0;            ///< vs seed_point.cable_m
  double best_aspl = 0.0;                  ///< min ASPL anywhere in the archive
  /// Shortcut endpoint pairs of the placement behind
  /// best_cable_m_at_seed_aspl (the seed's own shortcuts when nothing beat it).
  std::vector<std::pair<NodeId, NodeId>> best_shortcuts;
};

/// Anneal `topo`'s shortcut placement. Requires >= 2 shortcut links and a
/// connected non-shortcut skeleton (see MutableShortcutSet). Deterministic in
/// (topo, cfg) for any thread count.
OptimizerResult optimize_shortcuts(const Topology& topo, const OptimizerConfig& cfg);

/// Stable machine-readable form (dsn-lint optimize --json, micro_opt rows).
Json optimizer_result_to_json(const OptimizerResult& r);

}  // namespace dsn::opt
