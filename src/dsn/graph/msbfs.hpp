// 64-way bit-parallel multi-source BFS over a CsrView (MS-BFS, Then et al.,
// VLDB 2014). One uint64_t per node holds the "seen" bits of up to 64
// concurrent sources, so a single sweep over the arcs advances 64 BFS
// frontiers at once: the per-arc work is one AND-NOT plus an OR instead of 64
// separate traversals. All-pairs kernels (diameter/ASPL, eccentricities,
// connectivity) drop from n sequential BFS passes to ceil(n/64) sweeps, and
// aggregate consumers fold discovery events directly instead of scanning an
// n x 64 distance matrix afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dsn/graph/csr.hpp"

namespace dsn {

/// Sources advanced per bit-parallel sweep (bits of one machine word).
inline constexpr std::uint32_t kMsBfsBatch = 64;

/// Reusable per-thread working set for the MS-BFS kernels. Buffers grow to
/// the graph size on first use and are recycled across batches, so a sweep
/// over all sources allocates O(n) once per thread.
struct MsBfsScratch {
  std::vector<std::uint64_t> seen;     ///< per node: bit i set once source i reached it
  std::vector<std::uint64_t> visit;    ///< per node: frontier bits of the current level
  std::vector<std::uint64_t> next;     ///< per node: frontier bits of the next level
  std::vector<NodeId> frontier;        ///< nodes with a nonzero visit word
  std::vector<NodeId> next_frontier;   ///< nodes with a nonzero next word
};

/// Core bit-parallel sweep. Starts one BFS lane per source (lane i =
/// sources[i], bit i) and invokes on_reach(v, level, fresh) for every
/// discovery event: lane set `fresh` first reached node v at hop `level`
/// (>= 1; the level-0 self-discovery of each source is not reported).
/// After the call scratch.seen[v] bit i tells whether lane i reached v.
/// Every lane's event sequence is exactly a BFS from its source.
template <typename OnReach>
void msbfs_sweep(const CsrView& g, std::span<const NodeId> sources, MsBfsScratch& scratch,
                 OnReach&& on_reach) {
  const NodeId n = g.num_nodes();
  const std::size_t b = sources.size();
  DSN_REQUIRE(b >= 1 && b <= kMsBfsBatch, "batch size must be in [1, 64]");

  scratch.seen.assign(n, 0);
  scratch.visit.assign(n, 0);
  scratch.next.assign(n, 0);
  scratch.frontier.clear();
  scratch.next_frontier.clear();

  for (std::size_t i = 0; i < b; ++i) {
    const NodeId src = sources[i];
    DSN_REQUIRE(src < n, "source out of range");
    if (scratch.visit[src] == 0) scratch.frontier.push_back(src);
    scratch.visit[src] |= std::uint64_t{1} << i;
    scratch.seen[src] |= std::uint64_t{1} << i;
  }

  std::uint32_t level = 0;
  std::uint64_t* const seen = scratch.seen.data();
  std::uint64_t* visit = scratch.visit.data();
  std::uint64_t* next = scratch.next.data();
  while (!scratch.frontier.empty()) {
    ++level;
    scratch.next_frontier.clear();
    const auto expand = [&](NodeId u, std::uint64_t w) {
      visit[u] = 0;
      for (const NodeId v : g.neighbors(u)) {
        const std::uint64_t fresh = w & ~seen[v];
        if (fresh == 0) continue;
        if (next[v] == 0) scratch.next_frontier.push_back(v);
        next[v] |= fresh;
        seen[v] |= fresh;
        on_reach(v, level, fresh);
      }
    };
    if (scratch.frontier.size() >= n / 8 + 1) {
      // Dense level: enough of the graph is on the frontier that an ascending
      // scan of the visit words — streaming through the CSR arrays
      // sequentially instead of hopping in discovery order — beats paying a
      // random access per frontier node. The n/8 cutover keeps long-diameter
      // graphs (a ring's frontier is ~batch-size nodes for n/2 levels) on the
      // sparse path, where the scan would cost O(n) per level.
      for (NodeId u = 0; u < n; ++u) {
        if (const std::uint64_t w = visit[u]; w != 0) expand(u, w);
      }
    } else {
      for (const NodeId u : scratch.frontier) expand(u, visit[u]);
    }
    std::swap(visit, next);  // next is all zero again after the swap
    scratch.frontier.swap(scratch.next_frontier);
  }
}

/// Full distance vector from one source by a plain frontier BFS over the CSR
/// snapshot (CSR-backed equivalent of bfs_distances). Used by is_connected
/// and the up*/down* tree build.
std::vector<std::uint32_t> csr_bfs_distances(const CsrView& g, NodeId src);

}  // namespace dsn
