// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling and shard merges must be pure functions of (graph, config),
// never of thread count or timing.
#include "dsn/graph/estimator.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/msbfs.hpp"

namespace dsn {

std::vector<NodeId> sample_sources(NodeId n, std::uint32_t count, std::uint64_t seed) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  if (count >= n) return all;
  // Partial Fisher-Yates: the first `count` entries are a uniform sample
  // without replacement; sorting makes the sweep order id-ascending.
  Rng rng(seed);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<NodeId>(rng.next_below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

namespace {

/// Scratch for accumulate_tree_loads (reused across calls).
struct TreeLoadScratch {
  std::vector<NodeId> order;           // nodes by descending distance
  std::vector<std::uint64_t> weight;   // subtree destination counts
  std::vector<std::size_t> bucket;     // counting-sort offsets by distance
};

/// Add the hop sum, reachable count and per-link loads of the canonical
/// shortest-path tree rooted at the unique dist-0 node (see TreeLoads::loads
/// for the parent rule) to `out`. O(n + m).
void accumulate_tree_loads(const CsrView& g, std::span<const std::uint32_t> dist,
                           TreeLoads& out, TreeLoadScratch& scratch) {
  const NodeId n = g.num_nodes();

  // Counting sort of the reachable non-root nodes by distance: weights flow
  // strictly from larger to smaller distance, so any order within one level
  // is correct; bucketing by (distance, node id) keeps it canonical.
  std::uint32_t maxd = 0;
  std::size_t cnt = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    maxd = std::max(maxd, d);
    out.sum_hops += d;
    ++cnt;
  }
  out.reachable_pairs += cnt;
  if (cnt == 0) return;
  scratch.bucket.assign(static_cast<std::size_t>(maxd) + 2, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    ++scratch.bucket[d + 1];
  }
  for (std::size_t i = 1; i <= maxd; ++i) scratch.bucket[i + 1] += scratch.bucket[i];
  scratch.order.resize(cnt);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    scratch.order[scratch.bucket[d]++] = v;
  }

  scratch.weight.assign(n, 1);
  for (std::size_t idx = cnt; idx-- > 0;) {
    const NodeId v = scratch.order[idx];
    const std::uint32_t d = dist[v];
    const auto nbrs = g.neighbors(v);
    const auto lnks = g.links(v);
    NodeId best_u = kInvalidNode;
    LinkId best_link = 0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId u = nbrs[k];
      if (dist[u] + 1 != d) continue;  // kUnreachable + 1 wraps to 0 != d (d >= 1)
      const LinkId l = lnks[k];
      if (best_u == kInvalidNode || u < best_u || (u == best_u && l < best_link)) {
        best_u = u;
        best_link = l;
      }
    }
    DSN_ASSERT(best_u != kInvalidNode, "reachable node must have a tight parent");
    out.loads[best_link] += static_cast<std::int64_t>(scratch.weight[v]);
    scratch.weight[best_u] += scratch.weight[v];
  }
}

EstimateView make_view(const TreeLoads& sweep, NodeId n, std::uint64_t num_sources) {
  EstimateView v;
  v.sum_hops = sweep.sum_hops;
  v.reachable_pairs = sweep.reachable_pairs;
  if (sweep.reachable_pairs > 0)
    v.aspl = static_cast<double>(sweep.sum_hops) / static_cast<double>(sweep.reachable_pairs);
  v.sample_connected = sweep.reachable_pairs == num_sources * (n - 1);
  for (const std::int64_t l : sweep.loads)
    v.max_link_load = std::max(v.max_link_load, static_cast<std::uint64_t>(l));
  if (v.max_link_load > 0) {
    v.max_normalized_load = static_cast<double>(v.max_link_load) * static_cast<double>(n) /
                            (static_cast<double>(num_sources) * static_cast<double>(n - 1));
    v.throughput_bound = 1.0 / v.max_normalized_load;
  }
  return v;
}

}  // namespace

TreeLoads compute_tree_loads(const CsrView& csr, std::span<const NodeId> sources) {
  const NodeId n = csr.num_nodes();
  const std::size_t num_links = csr.num_arcs() / 2;
  TreeLoads out;
  out.loads.assign(num_links, 0);
  if (n == 0 || sources.empty()) return out;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t batches = (sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(batches, 4 * pool.size()));
  std::vector<TreeLoads> shard_out(shards);

  pool.parallel_for(0, shards, [&](std::size_t k) {
    TreeLoads& so = shard_out[k];
    so.loads.assign(num_links, 0);
    MsBfsScratch scratch;
    TreeLoadScratch tls;
    std::vector<std::uint32_t> batch_dist(static_cast<std::size_t>(n) * kMsBfsBatch);
    std::vector<std::uint32_t> row(n);
    const std::size_t begin = k * batches / shards;
    const std::size_t end = (k + 1) * batches / shards;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kMsBfsBatch;
      const std::size_t lanes =
          std::min<std::size_t>(sources.size() - lo, kMsBfsBatch);
      msbfs_batch(csr, sources.subspan(lo, lanes), batch_dist.data(), scratch);
      for (std::size_t i = 0; i < lanes; ++i) {
        for (NodeId v = 0; v < n; ++v)
          row[v] = batch_dist[static_cast<std::size_t>(v) * kMsBfsBatch + i];
        accumulate_tree_loads(csr, row, so, tls);
      }
    }
  });

  // Integer sums merged in shard order: identical for any shard count.
  for (const TreeLoads& so : shard_out) {
    for (std::size_t l = 0; l < num_links; ++l) out.loads[l] += so.loads[l];
    out.sum_hops += so.sum_hops;
    out.reachable_pairs += so.reachable_pairs;
  }
  return out;
}

SampledPathEstimator::SampledPathEstimator(const CsrView& csr, const EstimatorConfig& cfg)
    : n_(csr.num_nodes()) {
  DSN_REQUIRE(n_ > 1, "estimator needs at least two nodes");
  std::uint32_t count = cfg.sample_sources;
  if (count == 0) count = n_ <= 1024 ? n_ : 128;
  count = static_cast<std::uint32_t>(std::min<std::uint64_t>(count, n_));
  sources_ = sample_sources(n_, count, cfg.seed);
  committed_ = compute_tree_loads(csr, sources_);
  current_ = make_view(committed_, n_, sources_.size());
}

const EstimateView& SampledPathEstimator::evaluate(const CsrView& next) {
  DSN_REQUIRE(!has_pending_, "previous candidate not committed/discarded");
  DSN_REQUIRE(next.num_nodes() == n_ && next.num_arcs() / 2 == committed_.loads.size(),
              "candidate graph shape mismatch");
  ++full_sweeps_;
  pending_ = compute_tree_loads(next, sources_);
  pending_view_ = make_view(pending_, n_, sources_.size());
  has_pending_ = true;
  return pending_view_;
}

void SampledPathEstimator::commit() {
  DSN_REQUIRE(has_pending_, "no pending candidate to commit");
  std::swap(committed_, pending_);
  current_ = pending_view_;
  has_pending_ = false;
}

void SampledPathEstimator::discard() {
  DSN_REQUIRE(has_pending_, "no pending candidate to discard");
  has_pending_ = false;
}

}  // namespace dsn
