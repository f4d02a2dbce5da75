#include "dsn/routing/cdg.hpp"

#include <algorithm>
#include <utility>

#include "dsn/common/thread_pool.hpp"
#include "dsn/routing/dsn_routing.hpp"

namespace dsn {

void ChannelDependencyGraph::grow_slots(std::size_t min_capacity) {
  std::size_t cap = 64;
  while (cap < 2 * min_capacity) cap *= 2;  // keep load factor under 1/2
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (std::uint32_t id = 0; id < channels_.size(); ++id) {
    std::size_t h = ChannelHash{}(channels_[id]) & slot_mask_;
    while (slots_[h] != 0) h = (h + 1) & slot_mask_;
    slots_[h] = id + 1;
  }
}

std::uint32_t ChannelDependencyGraph::channel_index(const Channel& c) {
  if (2 * (channels_.size() + 1) > slots_.size()) grow_slots(channels_.size() + 1);
  std::size_t h = ChannelHash{}(c) & slot_mask_;
  while (slots_[h] != 0) {
    const std::uint32_t id = slots_[h] - 1;
    if (channels_[id] == c) return id;
    h = (h + 1) & slot_mask_;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(channels_.size());
  slots_[h] = id + 1;
  channels_.push_back(c);
  adjacency_.emplace_back();
  // Reserve ahead: CDG out-degrees are tiny (a channel is followed by at
  // most a handful of distinct next channels), so one small reservation
  // avoids the doubling reallocations of the first few pushes.
  adjacency_.back().reserve(4);
  use_counts_.push_back(0);
  return id;
}

std::uint32_t ChannelDependencyGraph::find_index(const Channel& c) const {
  if (slots_.empty()) return 0xffffffffu;
  std::size_t h = ChannelHash{}(c) & slot_mask_;
  while (slots_[h] != 0) {
    const std::uint32_t id = slots_[h] - 1;
    if (channels_[id] == c) return id;
    h = (h + 1) & slot_mask_;
  }
  return 0xffffffffu;
}

void ChannelDependencyGraph::add_route(const std::vector<Channel>& channels) {
  // The prefix this route shares with the previous one is already recorded:
  // its channels have ids and every dependency inside it exists, so it only
  // adds load. Merges never renumber ids, so the remembered ids stay valid.
  const std::size_t common = std::min(channels.size(), last_route_.size());
  std::size_t i = 0;
  for (; i < common && channels[i] == last_route_[i]; ++i) ++use_counts_[last_ids_[i]];
  last_ids_.resize(i);
  std::uint32_t prev = i > 0 ? last_ids_[i - 1] : 0;
  for (; i < channels.size(); ++i) {
    const std::uint32_t cur = channel_index(channels[i]);
    ++use_counts_[cur];
    if (i > 0 && prev != cur) {
      auto& out = adjacency_[prev];
      if (std::find(out.begin(), out.end(), cur) == out.end()) {
        out.push_back(cur);
        ++num_deps_;
      }
    }
    prev = cur;
    last_ids_.push_back(cur);
  }
  last_route_ = channels;
}

void ChannelDependencyGraph::reserve(std::size_t expected_channels) {
  if (2 * expected_channels > slots_.size()) grow_slots(expected_channels);
  channels_.reserve(expected_channels);
  adjacency_.reserve(expected_channels);
  use_counts_.reserve(expected_channels);
}

void ChannelDependencyGraph::merge(const ChannelDependencyGraph& other) {
  reserve(num_channels() + other.num_channels());
  // Re-index the other graph's channels into this one, then translate its
  // adjacency rows; duplicates collapse exactly as in add_route.
  std::vector<std::uint32_t> remap(other.channels_.size());
  for (std::size_t i = 0; i < other.channels_.size(); ++i) {
    remap[i] = channel_index(other.channels_[i]);
    use_counts_[remap[i]] += other.use_counts_[i];
  }
  for (std::size_t i = 0; i < other.adjacency_.size(); ++i) {
    auto& out = adjacency_[remap[i]];
    for (const std::uint32_t raw : other.adjacency_[i]) {
      const std::uint32_t to = remap[raw];
      if (std::find(out.begin(), out.end(), to) == out.end()) {
        out.push_back(to);
        ++num_deps_;
      }
    }
  }
}

bool ChannelDependencyGraph::has_dependency(const Channel& a, const Channel& b) const {
  const std::uint32_t ia = find_index(a);
  const std::uint32_t ib = find_index(b);
  if (ia == 0xffffffffu || ib == 0xffffffffu) return false;
  const auto& out = adjacency_[ia];
  return std::find(out.begin(), out.end(), ib) != out.end();
}

bool ChannelDependencyGraph::is_acyclic() const {
  // Kahn's algorithm: the graph is acyclic iff every node can be popped.
  const std::size_t n = adjacency_.size();
  std::vector<std::uint32_t> indegree(n, 0);
  for (const auto& out : adjacency_)
    for (const std::uint32_t v : out) ++indegree[v];
  std::vector<std::uint32_t> ready;
  ready.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u)
    if (indegree[u] == 0) ready.push_back(u);
  std::size_t popped = 0;
  while (!ready.empty()) {
    const std::uint32_t u = ready.back();
    ready.pop_back();
    ++popped;
    for (const std::uint32_t v : adjacency_[u])
      if (--indegree[v] == 0) ready.push_back(v);
  }
  return popped == n;
}

std::vector<Channel> ChannelDependencyGraph::find_cycle() const {
  // Iterative DFS with colors; returns the first back-edge cycle found.
  const std::size_t n = adjacency_.size();
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::uint32_t> parent(n, kInvalidNode);

  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    // Stack of (node, next child index).
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [u, child] = stack.back();
      if (child < adjacency_[u].size()) {
        const std::uint32_t v = adjacency_[u][child++];
        if (color[v] == 0) {
          color[v] = 1;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (color[v] == 1) {
          // Found a cycle v -> ... -> u -> v.
          std::vector<Channel> cycle;
          std::uint32_t w = u;
          cycle.push_back(channels_[v]);
          while (w != v && w != kInvalidNode) {
            cycle.push_back(channels_[w]);
            w = parent[w];
          }
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

namespace {

/// Strongly connected components by iterative Tarjan; returns the component
/// id of every node. Only components of size >= 2 (or with a self edge,
/// which add_route forbids) can contain cycles.
std::vector<std::uint32_t> tarjan_scc(const std::vector<std::vector<std::uint32_t>>& adj,
                                      std::vector<std::uint32_t>& comp_size) {
  const std::size_t n = adj.size();
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> comp(n, kUnset), low(n, 0), disc(n, kUnset);
  std::vector<std::uint32_t> scc_stack;
  std::vector<std::uint8_t> on_stack(n, 0);
  std::uint32_t timer = 0, comps = 0;
  std::vector<std::pair<std::uint32_t, std::size_t>> dfs;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (disc[root] != kUnset) continue;
    dfs.emplace_back(root, 0);
    while (!dfs.empty()) {
      auto& [u, child] = dfs.back();
      if (child == 0) {
        disc[u] = low[u] = timer++;
        scc_stack.push_back(u);
        on_stack[u] = 1;
      }
      if (child < adj[u].size()) {
        const std::uint32_t v = adj[u][child++];
        if (disc[v] == kUnset) {
          dfs.emplace_back(v, 0);
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], disc[v]);
        }
      } else {
        if (low[u] == disc[u]) {
          std::uint32_t size = 0;
          while (true) {
            const std::uint32_t w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = 0;
            comp[w] = comps;
            ++size;
            if (w == u) break;
          }
          comp_size.push_back(size);
          ++comps;
        }
        const std::uint32_t u_done = u;
        dfs.pop_back();
        if (!dfs.empty()) {
          low[dfs.back().first] = std::min(low[dfs.back().first], low[u_done]);
        }
      }
    }
  }
  return comp;
}

}  // namespace

std::vector<Channel> ChannelDependencyGraph::find_shortest_cycle(
    std::uint64_t work_cap) const {
  const std::size_t n = adjacency_.size();
  if (n == 0) return {};
  std::vector<std::uint32_t> comp_size;
  const std::vector<std::uint32_t> comp = tarjan_scc(adjacency_, comp_size);

  // Every directed cycle lives inside one SCC of size >= 2; BFS from each
  // such node, restricted to its component, finds the shortest cycle through
  // that node. Estimated work: sum over cyclic SCCs of size^2.
  std::uint64_t work = 0;
  for (const std::uint32_t size : comp_size)
    if (size >= 2) work += static_cast<std::uint64_t>(size) * size;
  if (work == 0) return {};
  if (work > work_cap) return find_cycle();

  std::vector<std::uint32_t> dist(n), parent(n), queue;
  std::vector<std::uint32_t> best;  // node-id cycle, best.front() repeated implicitly
  for (std::uint32_t start = 0; start < n; ++start) {
    if (comp_size[comp[start]] < 2) continue;
    if (!best.empty() && best.size() == 2) break;  // 2 is the global minimum
    std::fill(dist.begin(), dist.end(), kInvalidNode);
    queue.clear();
    dist[start] = 0;
    queue.push_back(start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      if (!best.empty() && dist[u] + 1 >= best.size()) break;  // cannot improve
      for (const std::uint32_t v : adjacency_[u]) {
        if (comp[v] != comp[start]) continue;
        if (v == start) {
          // Closed a cycle start -> ... -> u -> start of length dist[u] + 1.
          std::vector<std::uint32_t> cycle;
          for (std::uint32_t w = u;; w = parent[w]) {
            cycle.push_back(w);
            if (w == start) break;
          }
          std::reverse(cycle.begin(), cycle.end());
          if (best.empty() || cycle.size() < best.size()) best = std::move(cycle);
          continue;
        }
        if (dist[v] != kInvalidNode) continue;
        dist[v] = dist[u] + 1;
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  std::vector<Channel> out;
  out.reserve(best.size());
  for (const std::uint32_t idx : best) out.push_back(channels_[idx]);
  return out;
}

DsnChannelClass dsn_hop_class(const Dsn& dsn, NodeId dst, const RouteHop& hop) {
  switch (hop.phase) {
    case RoutePhase::kPreWork:
      return kClassUp;
    case RoutePhase::kMain:
      return kClassMain;
    case RoutePhase::kFinish:
      break;
  }
  const NodeId region_hi = 2 * dsn.p();  // Extra links connect nodes 0..2p
  return dst + 1 <= region_hi && hop.from <= region_hi && hop.to <= region_hi ? kClassExtra
                                                                               : kClassFinish;
}

void dsn_route_channels_extended(const Dsn& dsn, const Route& route,
                                 std::vector<Channel>& out) {
  out.clear();
  out.reserve(route.hops.size());
  for (const RouteHop& h : route.hops) {
    out.push_back({h.from, h.to, dsn_hop_class(dsn, route.dst, h)});
  }
}

std::vector<Channel> dsn_route_channels_extended(const Dsn& dsn, const Route& route) {
  std::vector<Channel> out;
  dsn_route_channels_extended(dsn, route, out);
  return out;
}

void dsn_route_channels_basic(const Route& route, std::vector<Channel>& out) {
  out.clear();
  out.reserve(route.hops.size());
  for (const RouteHop& h : route.hops) out.push_back({h.from, h.to, 0});
}

std::vector<Channel> dsn_route_channels_basic(const Route& route) {
  std::vector<Channel> out;
  dsn_route_channels_basic(route, out);
  return out;
}

ChannelDependencyGraph build_dsn_cdg(const Dsn& dsn, bool extended, bool nearest_prework) {
  DsnRoutingOptions options;
  options.nearest_prework = nearest_prework;
  const DsnRouter router(dsn, options);
  // Shard the sources across the global pool: each shard accumulates a
  // private CDG over a contiguous source range, refilling one route and one
  // channel buffer, and shards merge in fixed order (deterministic result).
  const NodeId n = dsn.n();
  ThreadPool& pool = ThreadPool::global();
  const std::size_t num_shards = pool.shard_count(n);
  std::vector<ChannelDependencyGraph> shards(num_shards);
  pool.parallel_for(0, num_shards, [&](std::size_t k) {
    const NodeId begin = static_cast<NodeId>(k * n / num_shards);
    const NodeId end = static_cast<NodeId>((k + 1) * n / num_shards);
    Route route;
    std::vector<Channel> channels;
    for (NodeId s = begin; s < end; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        router.route(s, t, route);
        if (extended) {
          dsn_route_channels_extended(dsn, route, channels);
        } else {
          dsn_route_channels_basic(route, channels);
        }
        shards[k].add_route(channels);
      }
    }
  });
  ChannelDependencyGraph cdg = std::move(shards[0]);
  for (std::size_t k = 1; k < num_shards; ++k) cdg.merge(shards[k]);
  return cdg;
}

}  // namespace dsn
