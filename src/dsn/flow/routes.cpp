// dsn-slint: deterministic — see routes.hpp.
#include "dsn/flow/routes.hpp"

#include <algorithm>
#include <limits>

#include "dsn/common/error.hpp"

namespace dsn::flow {

namespace {

/// Recover the DLN's forward shortcut spans from the physical graph: node 0
/// carries one shortcut per span class, to node `span` (forward half) and
/// from node `n - span` (backward half of the undirected link). Spans are
/// always <= n/2 by construction, so the two halves are told apart by size.
std::vector<std::uint32_t> dln_spans(const Topology& topo) {
  const std::uint32_t n = topo.num_nodes();
  std::vector<std::uint32_t> spans;
  for (const AdjHalf& h : topo.graph.neighbors(0)) {
    if (h.link >= topo.link_roles.size() || topo.link_roles[h.link] != LinkRole::kShortcut)
      continue;
    const std::uint32_t forward = h.to;  // (0 + span) % n == h.to
    const std::uint32_t span = forward <= n - forward ? forward : n - forward;
    if (span > 1) spans.push_back(span);
  }
  std::sort(spans.begin(), spans.end(), std::greater<>());
  spans.erase(std::unique(spans.begin(), spans.end()), spans.end());
  return spans;
}

}  // namespace

FlowRoutes::FlowRoutes(const Topology& topo, const CsrView& csr,
                       std::uint32_t updown_max_n)
    : topo_(&topo), csr_(&csr) {
  if (topo.kind == TopologyKind::kDln) {
    mode_ = "dln-jump";
    spans_ = dln_spans(topo);
    return;
  }
  const analyze::RoutingFamily family = analyze::default_family(topo.kind);
  if (family == analyze::RoutingFamily::kUpDown && topo.num_nodes() > updown_max_n) {
    mode_ = "bfs";
    return;
  }
  mode_ = analyze::to_string(family);
  bound_ = analyze::make_route_function(topo, family);
}

void FlowRoutes::switch_path(NodeId s, NodeId t, Scratch& scratch,
                             std::vector<NodeId>& path) const {
  path.clear();
  if (s == t) {
    path.push_back(s);
    return;
  }
  if (bound_.fill_route) {
    bound_.fill_route(s, t, scratch.route);
    path.push_back(s);
    for (const RouteHop& h : scratch.route.hops) path.push_back(h.to);
    return;
  }
  if (mode_ == "dln-jump") {
    // Greedy clockwise distance-halving: always take the largest span that
    // does not overshoot, else step the ring. The clockwise distance strictly
    // decreases every hop, so the walk terminates loop-free in
    // O(spans + smallest span) hops.
    const std::uint32_t n = topo_->num_nodes();
    NodeId at = s;
    path.push_back(at);
    std::uint32_t d = t >= at ? t - at : n - (at - t);
    while (d > 0) {
      std::uint32_t step = 1;
      for (const std::uint32_t span : spans_) {
        if (span <= d) {
          step = span;
          break;
        }
      }
      at = static_cast<NodeId>((at + step) % n);
      path.push_back(at);
      d -= step;
    }
    return;
  }
  bfs_path(s, t, scratch, path);
}

void FlowRoutes::bfs_path(NodeId s, NodeId t, Scratch& scratch,
                          std::vector<NodeId>& path) const {
  const NodeId n = csr_->num_nodes();
  // A scratch lives as long as its simulator, so the generation may wrap:
  // restart the stamps before it does.
  if (scratch.stamp_fwd.size() != n ||
      scratch.gen == std::numeric_limits<std::uint32_t>::max()) {
    scratch.stamp_fwd.assign(n, 0);
    scratch.stamp_bwd.assign(n, 0);
    scratch.parent_fwd.assign(n, kInvalidNode);
    scratch.parent_bwd.assign(n, kInvalidNode);
    scratch.gen = 0;
  }
  const std::uint32_t gen = ++scratch.gen;

  // Bidirectional level-synchronous BFS. The two searches expand alternately
  // (smaller frontier first); after each expansion the lowest-id node seen by
  // both sides is the meeting point — a data-dependent tie-break, so the path
  // is identical for any thread count.
  std::vector<NodeId>& fwd = scratch.fwd;
  std::vector<NodeId>& bwd = scratch.bwd;
  fwd.assign(1, s);
  bwd.assign(1, t);
  scratch.stamp_fwd[s] = gen;
  scratch.parent_fwd[s] = kInvalidNode;
  scratch.stamp_bwd[t] = gen;
  scratch.parent_bwd[t] = kInvalidNode;

  NodeId meet = kInvalidNode;
  while (meet == kInvalidNode && (!fwd.empty() || !bwd.empty())) {
    const bool expand_fwd =
        !fwd.empty() && (bwd.empty() || fwd.size() <= bwd.size());
    std::vector<NodeId>& frontier = expand_fwd ? fwd : bwd;
    std::vector<std::uint32_t>& stamp = expand_fwd ? scratch.stamp_fwd : scratch.stamp_bwd;
    std::vector<NodeId>& parent = expand_fwd ? scratch.parent_fwd : scratch.parent_bwd;
    const std::vector<std::uint32_t>& other_stamp =
        expand_fwd ? scratch.stamp_bwd : scratch.stamp_fwd;

    scratch.next.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v : csr_->neighbors(u)) {
        if (stamp[v] == gen) continue;
        stamp[v] = gen;
        parent[v] = u;
        scratch.next.push_back(v);
        if (other_stamp[v] == gen && (meet == kInvalidNode || v < meet)) meet = v;
      }
    }
    frontier.swap(scratch.next);
  }
  DSN_REQUIRE(meet != kInvalidNode, "bfs route: graph is disconnected");

  // Stitch s .. meet (forward parents, reversed) and meet .. t (backward).
  path.clear();
  for (NodeId v = meet; v != kInvalidNode; v = scratch.parent_fwd[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  for (NodeId v = scratch.parent_bwd[meet]; v != kInvalidNode; v = scratch.parent_bwd[v])
    path.push_back(v);
}

}  // namespace dsn::flow
