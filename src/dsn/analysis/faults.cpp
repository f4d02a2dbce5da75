#include "dsn/analysis/faults.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/msbfs.hpp"

namespace dsn {

SubsetPathStats subset_path_stats(const Graph& g, const std::vector<std::uint8_t>& alive) {
  DSN_REQUIRE(alive.size() == g.num_nodes(), "alive mask size mismatch");
  SubsetPathStats out;
  std::vector<NodeId> sources;
  sources.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v]) sources.push_back(v);
  }
  const std::uint64_t alive_count = sources.size();
  if (alive_count <= 1) {
    out.connected = true;
    return out;
  }

  // Shards are contiguous ranges of 64-source MS-BFS batches, each with one
  // scratch and one accumulator, merged in shard order: integer sums and a
  // max, so the result is the same for any worker count.
  const CsrView csr(g);
  ThreadPool& pool = ThreadPool::global();
  const std::size_t batches = (sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
  const std::size_t shards = pool.shard_count(batches);
  struct ShardAcc {
    std::uint64_t reached = 0;
    std::uint64_t total = 0;
    std::uint32_t diameter = 0;
  };
  std::vector<ShardAcc> acc(shards);
  pool.parallel_for(0, shards, [&](std::size_t k) {
    MsBfsScratch scratch;
    ShardAcc& a = acc[k];
    const std::size_t begin = k * batches / shards;
    const std::size_t end = (k + 1) * batches / shards;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kMsBfsBatch;
      const std::size_t count = std::min<std::size_t>(kMsBfsBatch, sources.size() - lo);
      msbfs_sweep(csr, std::span<const NodeId>(sources).subspan(lo, count), scratch,
                  [&](NodeId v, std::uint32_t level, std::uint64_t fresh) {
                    if (!alive[v]) return;
                    const auto lanes = static_cast<std::uint32_t>(std::popcount(fresh));
                    a.reached += lanes;
                    a.total += static_cast<std::uint64_t>(level) * lanes;
                    a.diameter = std::max(a.diameter, level);
                  });
    }
  });

  std::uint64_t reached = 0;
  std::uint64_t total = 0;
  std::uint32_t diameter = 0;
  for (const ShardAcc& a : acc) {
    reached += a.reached;
    total += a.total;
    diameter = std::max(diameter, a.diameter);
  }
  const std::uint64_t pairs = alive_count * (alive_count - 1);
  if (reached != pairs) return out;  // disconnected: all-zero stats
  out.connected = true;
  out.diameter = diameter;
  out.aspl = static_cast<double>(total) / static_cast<double>(pairs);
  return out;
}

namespace {

FaultTrialResult aggregate_trials(double fraction,
                                  const std::vector<SubsetPathStats>& stats) {
  FaultTrialResult result;
  result.fraction_failed = fraction;
  result.trials = static_cast<std::uint32_t>(stats.size());
  double diam_sum = 0.0, aspl_sum = 0.0;
  for (const SubsetPathStats& s : stats) {
    if (!s.connected) continue;
    ++result.connected_trials;
    diam_sum += s.diameter;
    aspl_sum += s.aspl;
  }
  result.connected_rate =
      result.trials == 0 ? 0.0
                         : static_cast<double>(result.connected_trials) / result.trials;
  if (result.connected_trials > 0) {
    result.avg_diameter = diam_sum / result.connected_trials;
    result.avg_aspl = aspl_sum / result.connected_trials;
  }
  return result;
}

/// `trials` trials, each killing a uniform sample of round(fraction * count)
/// of the links (of the switches when `switches` is set) and evaluating the
/// live subgraph.
FaultTrialResult evaluate_faults(const Graph& g, double fraction, std::uint32_t trials,
                                 std::uint64_t seed, bool switches) {
  DSN_REQUIRE(fraction >= 0.0 && fraction < 1.0, "fraction must be in [0, 1)");
  std::vector<std::uint8_t> link_alive(g.num_links(), 1);
  std::vector<std::uint8_t> node_alive(g.num_nodes(), 1);
  std::vector<std::uint8_t>& mask = switches ? node_alive : link_alive;
  const auto kill = static_cast<std::size_t>(static_cast<double>(mask.size()) * fraction + 0.5);
  std::vector<SubsetPathStats> stats(trials);

  Rng rng(seed);
  std::vector<std::uint32_t> ids(mask.size());
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    std::iota(ids.begin(), ids.end(), 0);
    // Partial Fisher-Yates: the first `kill` entries are a uniform sample.
    for (std::size_t i = 0; i < kill; ++i) {
      const auto j = i + static_cast<std::size_t>(rng.next_below(ids.size() - i));
      std::swap(ids[i], ids[j]);
    }
    std::fill(mask.begin(), mask.end(), 1);
    for (std::size_t i = 0; i < kill; ++i) mask[ids[i]] = 0;
    stats[trial] = subset_path_stats(live_subgraph(g, link_alive, node_alive), node_alive);
  }
  return aggregate_trials(fraction, stats);
}

}  // namespace

FaultTrialResult evaluate_link_faults(const Topology& topo, double fraction,
                                      std::uint32_t trials, std::uint64_t seed) {
  return evaluate_faults(topo.graph, fraction, trials, seed, /*switches=*/false);
}

FaultTrialResult evaluate_switch_faults(const Topology& topo, double fraction,
                                        std::uint32_t trials, std::uint64_t seed) {
  return evaluate_faults(topo.graph, fraction, trials, seed, /*switches=*/true);
}

}  // namespace dsn
