// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling and shard merges must be pure functions of (graph, config),
// never of thread count or timing.
#include "dsn/graph/estimator.hpp"

#include <algorithm>
#include <bit>
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

/// Each node's arcs as (neighbor << 32 | link id) keys, ascending: the first
/// tight arc a lane meets in this order is its canonical parent (TreeLoads).
struct SortedArcs {
  std::vector<std::size_t> begin;  // node v's keys are [begin[v], begin[v + 1])
  std::vector<std::uint64_t> key;

  explicit SortedArcs(const CsrView& g) : begin(g.num_nodes() + std::size_t{1}, 0) {
    key.reserve(g.num_arcs());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto nbrs = g.neighbors(v);
      const auto lnks = g.links(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k)
        key.push_back(std::uint64_t{nbrs[k]} << 32 | lnks[k]);
      std::sort(key.begin() + static_cast<std::ptrdiff_t>(begin[v]), key.end());
      begin[v + 1] = key.size();
    }
  }
};

/// Per-shard working set of the level-mask kernel, recycled across batches.
struct LevelMaskScratch {
  MsBfsScratch bfs;
  // One entry per (node, BFS level >= 1) with a nonzero lane mask: the lanes
  // that first reached the node at that level. Level d's entries are
  // [level_begin[d - 1], level_begin[d]).
  std::vector<NodeId> node;
  std::vector<std::uint64_t> mask;
  std::vector<std::size_t> level_begin;
  std::vector<std::size_t> slot;    // per node: its most recent entry
  std::vector<std::uint64_t> at;    // per node: lanes at the level being parented into
  // Node-major n x 64: destinations strictly below (node, lane) in that
  // lane's tree. All zero between batches: the walk zeroes what it reads.
  std::vector<std::uint32_t> sub;

  explicit LevelMaskScratch(NodeId n)
      : slot(n, 0), at(n, 0), sub(static_cast<std::size_t>(n) * kMsBfsBatch, 0) {}
};

/// Add the hop sum, reachable count and per-link loads of the canonical
/// shortest-path trees of up to 64 sources to `out`. One MS-BFS records the
/// lane masks of every level; the walk then runs from the deepest level up,
/// and each entry ANDs its unparented lanes with each neighbor's lanes one
/// level up, in SortedArcs order, so the first hit per lane is that lane's
/// canonical parent. O(entries * degree) on top of the sweep: small-world
/// levels share one entry among many lanes, long-diameter ones do not.
void add_level_mask_loads(const CsrView& g, const SortedArcs& arcs,
                          std::span<const NodeId> sources, TreeLoads& out,
                          LevelMaskScratch& s) {
  s.node.clear();
  s.mask.clear();
  s.level_begin.clear();
  msbfs_sweep(g, sources, s.bfs, [&s](NodeId v, std::uint32_t level, std::uint64_t fresh) {
    if (level > s.level_begin.size()) s.level_begin.push_back(s.node.size());
    // v already has an entry at this level iff its latest one is here.
    const std::size_t k = s.slot[v];
    if (k >= s.level_begin.back() && k < s.node.size() && s.node[k] == v) {
      s.mask[k] |= fresh;
      return;
    }
    s.slot[v] = s.node.size();
    s.node.push_back(v);
    s.mask.push_back(fresh);
  });
  s.level_begin.push_back(s.node.size());

  // Set at[] to the lanes of level d (0 = the sources), or clear it.
  const auto mark_level = [&s, sources](std::size_t d, bool set) {
    if (d == 0) {
      for (std::size_t i = 0; i < sources.size(); ++i)
        s.at[sources[i]] = set ? s.at[sources[i]] | std::uint64_t{1} << i : 0;
      return;
    }
    for (std::size_t k = s.level_begin[d - 1]; k < s.level_begin[d]; ++k)
      s.at[s.node[k]] = set ? s.mask[k] : 0;
  };

  std::uint32_t* const sub = s.sub.data();
  for (std::size_t d = s.level_begin.size() - 1; d >= 1; --d) {
    mark_level(d - 1, true);
    std::uint64_t lanes = 0;
    for (std::size_t k = s.level_begin[d - 1]; k < s.level_begin[d]; ++k) {
      const NodeId v = s.node[k];
      std::uint64_t need = s.mask[k];
      lanes += static_cast<std::uint64_t>(std::popcount(need));
      std::uint32_t* const sub_v = sub + static_cast<std::size_t>(v) * kMsBfsBatch;
      for (std::size_t a = arcs.begin[v]; need != 0 && a < arcs.begin[v + 1]; ++a) {
        const auto u = static_cast<NodeId>(arcs.key[a] >> 32);
        std::uint64_t hit = need & s.at[u];
        if (hit == 0) continue;
        need &= ~hit;
        std::uint32_t* const sub_u = sub + static_cast<std::size_t>(u) * kMsBfsBatch;
        std::uint64_t load = 0;
        do {
          const int i = std::countr_zero(hit);
          const std::uint32_t w = sub_v[i] + 1;
          sub_v[i] = 0;
          sub_u[i] += w;
          load += w;
          hit &= hit - 1;
        } while (hit != 0);
        out.loads[static_cast<LinkId>(arcs.key[a])] += load;
      }
      DSN_ASSERT(need == 0, "reachable node must have a tight parent");
    }
    out.sum_hops += lanes * d;
    out.reachable_pairs += lanes;
    mark_level(d - 1, false);
  }
  // The roots' counts are never read; clear them for the next batch.
  for (std::size_t i = 0; i < sources.size(); ++i)
    sub[static_cast<std::size_t>(sources[i]) * kMsBfsBatch + i] = 0;
}

EstimateView make_view(const TreeLoads& sweep, NodeId n, std::uint64_t num_sources) {
  EstimateView v;
  v.sum_hops = sweep.sum_hops;
  v.reachable_pairs = sweep.reachable_pairs;
  if (sweep.reachable_pairs > 0)
    v.aspl = static_cast<double>(sweep.sum_hops) / static_cast<double>(sweep.reachable_pairs);
  v.sample_connected = sweep.reachable_pairs == num_sources * (n - 1);
  for (const std::uint64_t l : sweep.loads) v.max_link_load = std::max(v.max_link_load, l);
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
  const std::size_t shards = pool.shard_count(batches);
  std::vector<TreeLoads> shard_out(shards);

  const SortedArcs arcs(csr);
  pool.parallel_for(0, shards, [&](std::size_t k) {
    TreeLoads& so = shard_out[k];
    so.loads.assign(num_links, 0);
    LevelMaskScratch scratch(n);
    const std::size_t begin = k * batches / shards;
    const std::size_t end = (k + 1) * batches / shards;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kMsBfsBatch;
      const std::size_t lanes =
          std::min<std::size_t>(sources.size() - lo, kMsBfsBatch);
      add_level_mask_loads(csr, arcs, sources.subspan(lo, lanes), so, scratch);
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
