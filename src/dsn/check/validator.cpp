#include "dsn/check/validator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/check/route_verdicts.hpp"
#include "dsn/common/math.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace dsn::check {

namespace {

/// Appends violations to a report, capped so a systematically corrupt
/// topology does not produce O(n) copies of the same finding.
class Reporter {
 public:
  static constexpr std::size_t kMaxViolations = 256;

  explicit Reporter(ValidationReport& report) : report_(&report) {}

  void add(Violation v) {
    if (!full()) report_->violations.push_back(std::move(v));
  }

  void add(ViolationKind kind, Severity severity, NodeId node, LinkId link,
           std::string message) {
    add(Violation{kind, severity, node, link, std::move(message)});
  }

  bool full() const { return report_->violations.size() >= kMaxViolations; }

 private:
  ValidationReport* report_;
};

bool role_allowed(TopologyKind kind, LinkRole role) {
  switch (kind) {
    case TopologyKind::kRing:
      return role == LinkRole::kRing;
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D:
      return role == LinkRole::kRing || role == LinkRole::kWrap;
    case TopologyKind::kDln:
    case TopologyKind::kDlnRandom:
    case TopologyKind::kKleinberg:
    case TopologyKind::kRandomRegular:
    case TopologyKind::kDsn:
    case TopologyKind::kDsnFlex:
    case TopologyKind::kDsnBidir:
      return role == LinkRole::kRing || role == LinkRole::kShortcut;
    case TopologyKind::kDsnD:
      return role == LinkRole::kRing || role == LinkRole::kShortcut ||
             role == LinkRole::kDLocal;
    case TopologyKind::kDsnE:
      return role == LinkRole::kRing || role == LinkRole::kShortcut ||
             role == LinkRole::kUp || role == LinkRole::kExtra;
  }
  return false;
}

bool is_ring_based(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kRing:
    case TopologyKind::kDln:
    case TopologyKind::kDlnRandom:
    case TopologyKind::kDsn:
    case TopologyKind::kDsnD:
    case TopologyKind::kDsnE:
    case TopologyKind::kDsnFlex:
    case TopologyKind::kDsnBidir:
      return true;
    default:
      return false;
  }
}

bool is_dsn_family(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDsn:
    case TopologyKind::kDsnD:
    case TopologyKind::kDsnE:
    case TopologyKind::kDsnBidir:
      return true;
    default:
      return false;
  }
}

NodeId ring_succ(NodeId i, std::uint32_t n) { return i + 1 == n ? 0 : i + 1; }
NodeId ring_pred(NodeId i, std::uint32_t n) { return i == 0 ? n - 1 : i - 1; }

/// The shortcut law (§IV-A), derived from the paper's definition: the first
/// clockwise node of level l+1 at ring distance >= floor(n/2^l) from i, or
/// kInvalidNode when i's level exceeds p-1 (no such level exists).
NodeId expected_shortcut_target(std::uint32_t n, std::uint32_t p, NodeId i) {
  const std::uint32_t l = i % p + 1;  // level(i) in [1, p]
  if (l >= p + 1) return kInvalidNode;
  const std::uint32_t min_span = n >> l;
  NodeId j = static_cast<NodeId>((static_cast<std::uint64_t>(i) + min_span) % n);
  for (std::uint32_t scanned = 0; scanned <= n; ++scanned) {
    if (j % p == l) return j == i ? kInvalidNode : j;
    j = ring_succ(j, n);
  }
  return kInvalidNode;
}

// -------------------------------------------------------------------------
// Check families
// -------------------------------------------------------------------------

void check_representation(const Topology& topo, ValidationReport& report,
                          Reporter& rep) {
  const Graph& g = topo.graph;
  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(g.num_links());
  for (LinkId id = 0; id < g.num_links(); ++id) links.push_back(g.link_endpoints(id));
  std::vector<std::vector<AdjHalf>> adjacency(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto span = g.neighbors(u);
    adjacency[u].assign(span.begin(), span.end());
  }
  check_raw_graph(g.num_nodes(), links, adjacency, report);

  ++report.checks_run;
  if (topo.link_roles.size() != g.num_links()) {
    rep.add(ViolationKind::kLinkRoleCount, Severity::kError, kInvalidNode, kInvalidLink,
            "link_roles has " + std::to_string(topo.link_roles.size()) +
                " entries for " + std::to_string(g.num_links()) + " links");
  }
  const std::size_t roles = std::min(topo.link_roles.size(), g.num_links());
  for (LinkId id = 0; id < roles; ++id) {
    if (!role_allowed(topo.kind, topo.link_roles[id])) {
      rep.add(ViolationKind::kLinkRoleInvalid, Severity::kError, kInvalidNode, id,
              std::string("role '") + to_string(topo.link_roles[id]) +
                  "' is not legal in a " + to_string(topo.kind) + " topology");
      if (rep.full()) break;
    }
  }
}

/// Role of the first link between u and v matching `role`, scanning all
/// parallel links (Graph::find_link only returns the first).
bool has_link_with_role(const Topology& topo, NodeId u, NodeId v, LinkRole role) {
  for (const AdjHalf& h : topo.graph.neighbors(u)) {
    if (h.to == v && h.link < topo.link_roles.size() && topo.link_roles[h.link] == role)
      return true;
  }
  return false;
}

void check_ring_completeness(const Topology& topo, Reporter& rep) {
  const std::uint32_t n = topo.num_nodes();
  for (NodeId i = 0; i < n && !rep.full(); ++i) {
    const NodeId j = ring_succ(i, n);
    if (!has_link_with_role(topo, i, j, LinkRole::kRing)) {
      rep.add(ViolationKind::kRingIncomplete, Severity::kError, i, kInvalidLink,
              "missing ring link to successor " + std::to_string(j));
    }
  }
}

void check_grid_completeness(const Topology& topo, bool wraparound, Reporter& rep) {
  const std::uint32_t n = topo.num_nodes();
  std::uint64_t product = 1;
  for (const std::uint32_t d : topo.dims) product *= d;
  if (topo.dims.empty() || product != n) {
    rep.add(ViolationKind::kGridIncomplete, Severity::kError, kInvalidNode, kInvalidLink,
            "grid dims do not multiply to the node count");
    return;
  }
  std::vector<std::uint64_t> stride(topo.dims.size(), 1);
  for (std::size_t a = 1; a < topo.dims.size(); ++a)
    stride[a] = stride[a - 1] * topo.dims[a - 1];
  for (NodeId id = 0; id < n && !rep.full(); ++id) {
    for (std::size_t a = 0; a < topo.dims.size(); ++a) {
      const std::uint32_t d = topo.dims[a];
      if (d < 2) continue;
      const std::uint32_t c = static_cast<std::uint32_t>(id / stride[a]) % d;
      NodeId next = kInvalidNode;
      if (c + 1 < d) {
        next = static_cast<NodeId>(id + stride[a]);
      } else if (wraparound && d > 2) {
        next = static_cast<NodeId>(id - static_cast<std::uint64_t>(c) * stride[a]);
      }
      if (next != kInvalidNode && !topo.graph.has_link(id, next)) {
        rep.add(ViolationKind::kGridIncomplete, Severity::kError, id, kInvalidLink,
                "missing lattice link along axis " + std::to_string(a) + " to node " +
                    std::to_string(next));
      }
    }
  }
}

void check_degree_bounds(const Topology& topo, const std::optional<DsnParams>& dsn,
                         Reporter& rep) {
  const Graph& g = topo.graph;
  const std::uint32_t n = g.num_nodes();
  const double avg = g.average_degree();
  const auto avg_bound = [&](double bound, const char* what) {
    if (avg > bound + 1e-9) {
      rep.add(ViolationKind::kDegreeBound, Severity::kError, kInvalidNode, kInvalidLink,
              std::string(what) + ": average degree " + std::to_string(avg) +
                  " exceeds " + std::to_string(bound));
    }
  };
  const auto exact_degree = [&](std::size_t want) {
    for (NodeId u = 0; u < n && !rep.full(); ++u) {
      if (g.degree(u) != want) {
        rep.add(ViolationKind::kDegreeBound, Severity::kError, u, kInvalidLink,
                "degree " + std::to_string(g.degree(u)) + ", expected exactly " +
                    std::to_string(want));
      }
    }
  };

  switch (topo.kind) {
    case TopologyKind::kRing:
      exact_degree(2);
      break;
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D: {
      std::uint64_t product = 1;
      for (const std::uint32_t d : topo.dims) product *= d;
      if (topo.dims.empty() || product != n) break;  // flagged by the grid check
      std::size_t want = 0;
      for (const std::uint32_t d : topo.dims) want += d == 2 ? 1 : 2;
      exact_degree(want);
      break;
    }
    case TopologyKind::kDsn:
    case TopologyKind::kDsnFlex:
      // Theorem 1: n ring links + at most one shortcut per node.
      avg_bound(4.0, "DSN average-degree law");
      break;
    case TopologyKind::kDsnBidir:
      avg_bound(6.0, "bidirectional DSN average-degree law");
      break;
    case TopologyKind::kDsnE:
      if (dsn) {
        // n ring + <= n shortcut + n Up + 2p Extra links.
        avg_bound(6.0 + 4.0 * dsn->p / n, "DSN-E average-degree law");
      }
      break;
    case TopologyKind::kDsnD:
      if (dsn && dsn->xd >= 1) {
        const std::uint32_t q =
            static_cast<std::uint32_t>(ceil_div(dsn->p, dsn->xd));
        const double express = static_cast<double>(n) / q + 1.0;
        avg_bound(4.0 + 2.0 * express / n, "DSN-D average-degree law");
      }
      break;
    case TopologyKind::kRandomRegular: {
      const std::vector<std::uint64_t> nums = name_numbers(topo.name);
      if (nums.size() == 2 && nums[1] == n && nums[0] < n) {
        exact_degree(static_cast<std::size_t>(nums[0]));
      }
      break;
    }
    default:
      break;  // Kleinberg / Watts-Strogatz / DLN-random degrees are stochastic
  }
}

void check_dsn_shortcut_law(const Topology& topo, const DsnParams& params, Reporter& rep) {
  const Graph& g = topo.graph;
  const std::uint32_t n = params.n;
  const std::uint32_t p = params.p;

  // Forward direction: every level-l <= x node owns its lawful shortcut.
  for (NodeId i = 0; i < n && !rep.full(); ++i) {
    const std::uint32_t l = i % p + 1;
    if (l > params.x) continue;
    const NodeId j = expected_shortcut_target(n, p, i);
    if (j == kInvalidNode) {
      rep.add(ViolationKind::kShortcutMissing, Severity::kError, i, kInvalidLink,
              "no legal level-" + std::to_string(l + 1) + " target exists on the ring");
      continue;
    }
    if (j == ring_succ(i, n) || j == ring_pred(i, n)) continue;  // collapsed onto ring
    const bool present = params.mirrored
                             ? g.has_link(i, j)
                             : has_link_with_role(topo, i, j, LinkRole::kShortcut);
    if (!present) {
      rep.add(ViolationKind::kShortcutMissing, Severity::kError, i, kInvalidLink,
              "level-" + std::to_string(l) + " shortcut to node " + std::to_string(j) +
                  " (min span " + std::to_string(n >> l) + ") is missing");
    }
  }

  // Converse direction: every shortcut-role link is predicted by the law. The
  // owner is the first endpoint (generators insert links owner-first).
  const std::size_t roles = std::min(topo.link_roles.size(), g.num_links());
  for (LinkId id = 0; id < roles && !rep.full(); ++id) {
    if (topo.link_roles[id] != LinkRole::kShortcut) continue;
    const auto [u, v] = g.link_endpoints(id);
    const bool cw_ok = (u % p + 1) <= params.x && expected_shortcut_target(n, p, u) == v;
    bool ok = cw_ok;
    if (!ok && params.mirrored && u < n && v < n) {
      const NodeId mu = n - 1 - u;
      const NodeId mv = n - 1 - v;
      ok = (mu % p + 1) <= params.x && expected_shortcut_target(n, p, mu) == mv;
    }
    if (!ok) {
      const std::uint32_t l = u % p + 1;
      if (l > params.x && !params.mirrored) {
        rep.add(ViolationKind::kShortcutUnexpected, Severity::kError, u, id,
                "level-" + std::to_string(l) + " node owns a shortcut but x = " +
                    std::to_string(params.x));
      } else {
        rep.add(ViolationKind::kShortcutWrongTarget, Severity::kError, u, id,
                "shortcut lands on node " + std::to_string(v) +
                    " instead of the nearest lawful target");
      }
    }
  }
}

void check_dln_shortcut_law(const Topology& topo, Reporter& rep) {
  const std::uint32_t n = topo.num_nodes();
  const std::vector<std::uint64_t> nums = name_numbers(topo.name);
  if (nums.size() != 2 || nums[1] != n) {
    rep.add(ViolationKind::kNameMetadata, Severity::kWarning, kInvalidNode, kInvalidLink,
            "DLN name does not encode x and n; skipping the shortcut-span law");
    return;
  }
  const auto x = static_cast<std::uint32_t>(nums[0]);
  // Forward: every span floor(n/2^k), k = 1..x-2 (spans > 1), from every node.
  for (std::uint32_t k = 1; k + 2 <= x; ++k) {
    const std::uint32_t span = n >> k;
    if (span <= 1) break;
    for (NodeId i = 0; i < n && !rep.full(); ++i) {
      const NodeId j = static_cast<NodeId>((static_cast<std::uint64_t>(i) + span) % n);
      if (!topo.graph.has_link(i, j)) {
        rep.add(ViolationKind::kShortcutMissing, Severity::kError, i, kInvalidLink,
                "missing DLN span-" + std::to_string(span) + " shortcut to node " +
                    std::to_string(j));
      }
    }
  }
  // Converse: every shortcut-role link realizes one of the lawful spans.
  const std::size_t roles = std::min(topo.link_roles.size(), topo.graph.num_links());
  for (LinkId id = 0; id < roles && !rep.full(); ++id) {
    if (topo.link_roles[id] != LinkRole::kShortcut) continue;
    const auto [u, v] = topo.graph.link_endpoints(id);
    bool ok = false;
    for (std::uint32_t k = 1; k + 2 <= x && !ok; ++k) {
      const std::uint32_t span = n >> k;
      if (span <= 1) break;
      ok = ring_cw_distance(u, v, n) == span || ring_cw_distance(v, u, n) == span;
    }
    if (!ok) {
      rep.add(ViolationKind::kShortcutUnexpected, Severity::kError, u, id,
              "shortcut span is not floor(n/2^k) for any k in [1, x-2]");
    }
  }
}

// -------------------------------------------------------------------------
// Route checks: the whole-network route analyzer's verdicts
// -------------------------------------------------------------------------

/// Worst-case nodes the DSN source sample must include: both ends of the
/// Extra-channel window [0, 2p] (so FINISH walks near node 0 ride the Extra
/// channels), a full-super-node crossing, and the last super node (which may
/// be incomplete, r = n mod p).
std::vector<NodeId> dsn_sampling_extremes(const DsnParams& params) {
  const std::uint32_t p = params.p;
  const std::uint32_t n = params.n;
  return {1, p, 2 * p - 1, 2 * p, 2 * p + 1, static_cast<NodeId>(n - p)};
}

/// Deadlock freedom is claimed for up*/down* and for the extended DSN
/// channel scheme (Theorem 3: DSN-E, and DSN-D's express routing). Basic DSN
/// channels, DOR and greedy routing are expected to be cyclic.
bool claims_deadlock_freedom(const analyze::RouteAnalysis& ra) {
  return ra.family == analyze::RoutingFamily::kUpDown ||
         ra.scheme == analyze::ChannelScheme::kExtended;
}

std::string load_note(const analyze::RouteAnalysis& ra) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "static channel load (%s, all %llu pairs): max %llu, mean %.4g, gini %.4g, "
                "throughput bound %.4g",
                analyze::to_string(ra.family), static_cast<unsigned long long>(ra.pairs),
                static_cast<unsigned long long>(ra.load.max_load), ra.load.mean_load,
                ra.load.gini, ra.load.throughput_bound);
  return buf;
}

/// Run the analyzer for the kind's native routing family and, at all-pairs
/// sizes, for up*/down* too, and report its verdicts. A family that does not
/// apply to the topology is skipped with a note.
void check_routes(const Topology& topo, const ValidatorOptions& opts, Reporter& rep,
                  ValidationReport& report) {
  const std::vector<NodeId> sources = routing_sources(topo, opts.max_cdg_nodes);
  const bool all_pairs = sources.size() == topo.num_nodes();
  const analyze::RoutingFamily native = analyze::default_family(topo.kind);
  std::vector<analyze::RoutingFamily> families = {native};
  if (native != analyze::RoutingFamily::kUpDown && all_pairs) {
    families.push_back(analyze::RoutingFamily::kUpDown);
  } else if (!all_pairs && native == analyze::RoutingFamily::kUpDown) {
    report.notes.push_back("up*/down* route checks skipped: its tables are O(n^2), run "
                           "only up to max_cdg_nodes = " +
                           std::to_string(opts.max_cdg_nodes));
    return;
  }
  for (const analyze::RoutingFamily family : families) {
    ++report.checks_run;
    analyze::RouteAnalysis ra;
    try {
      ra = analyze::analyze_topology_routes(topo, family, {}, sources);
    } catch (const std::exception& e) {
      report.notes.push_back(std::string(analyze::to_string(family)) +
                             " route checks skipped: " + e.what());
      continue;
    }
    VerdictSelection select;
    select.cdg = claims_deadlock_freedom(ra);
    select.max_normalized_load = all_pairs && family == native ? opts.max_normalized_load : 0.0;
    for (Violation& v : route_violations(topo, ra, select)) rep.add(std::move(v));
    if (all_pairs) report.notes.push_back(load_note(ra));
  }
}

}  // namespace

ValidatorOptions structural_options() {
  ValidatorOptions opts;
  opts.check_routing = false;
  return opts;
}

ValidationReport validate_topology(const Topology& topo, const ValidatorOptions& options) {
  ValidationReport report;
  report.topology = topo.name.empty() ? to_string(topo.kind) : topo.name;
  Reporter rep(report);
  const std::uint32_t n = topo.num_nodes();

  check_representation(topo, report, rep);
  if (n == 0) return report;

  std::optional<DsnParams> dsn;
  if (is_dsn_family(topo.kind)) {
    dsn = parse_dsn_params(topo);
    if (!dsn) {
      rep.add(ViolationKind::kNameMetadata, Severity::kWarning, kInvalidNode,
              kInvalidLink,
              "DSN name/kind does not encode (n, x); shortcut-law, degree and "
              "DSN routing checks skipped");
    }
  }

  ++report.checks_run;
  if (is_ring_based(topo.kind)) check_ring_completeness(topo, rep);
  if (topo.kind == TopologyKind::kTorus2D || topo.kind == TopologyKind::kTorus3D)
    check_grid_completeness(topo, /*wraparound=*/true, rep);
  if (topo.kind == TopologyKind::kKleinberg && topo.dims.size() == 2)
    check_grid_completeness(topo, /*wraparound=*/false, rep);

  ++report.checks_run;
  check_degree_bounds(topo, dsn, rep);

  ++report.checks_run;
  if (dsn) check_dsn_shortcut_law(topo, *dsn, rep);
  if (topo.kind == TopologyKind::kDln) check_dln_shortcut_law(topo, rep);

  ++report.checks_run;
  const bool connected = is_connected(topo.graph);
  if (!connected) {
    // Random models (Watts-Strogatz rewiring, random regular) can
    // legitimately disconnect; everything else has a deterministic spine.
    const Severity sev = topo.kind == TopologyKind::kKleinberg ||
                                 topo.kind == TopologyKind::kRandomRegular
                             ? Severity::kWarning
                             : Severity::kError;
    rep.add(ViolationKind::kDisconnected, sev, kInvalidNode, kInvalidLink,
            "graph is not connected");
  }

  // The route checks walk the graph; skip them when the representation
  // itself is broken or the graph is disconnected.
  if (options.check_routing && connected && report.ok() && n >= 2) {
    check_routes(topo, options, rep, report);
  }
  return report;
}

std::vector<NodeId> routing_sources(const Topology& topo, std::uint32_t all_pairs_nodes) {
  const NodeId n = topo.num_nodes();
  std::vector<NodeId> nodes;
  if (n <= all_pairs_nodes) {
    nodes.resize(n);
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    return nodes;
  }
  // Strided sample, forced to contain n-1 (so the extreme pairs (0, n-1) and
  // (n-1, 0) are routed) and the DSN routing's worst-case nodes.
  const NodeId stride = n / 48 + 1;
  for (NodeId s = 0; s < n; s += stride) nodes.push_back(s);
  nodes.push_back(n - 1);
  if (const std::optional<DsnParams> dsn = parse_dsn_params(topo)) {
    for (const NodeId e : dsn_sampling_extremes(*dsn))
      if (e < n) nodes.push_back(e);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

void check_raw_graph(NodeId num_nodes,
                     const std::vector<std::pair<NodeId, NodeId>>& links,
                     const std::vector<std::vector<AdjHalf>>& adjacency,
                     ValidationReport& report) {
  Reporter rep(report);
  ++report.checks_run;

  std::vector<bool> endpoints_ok(links.size(), true);
  for (LinkId id = 0; id < links.size() && !rep.full(); ++id) {
    const auto [u, v] = links[id];
    if (u >= num_nodes || v >= num_nodes) {
      endpoints_ok[id] = false;
      rep.add(ViolationKind::kNodeIdRange, Severity::kError, kInvalidNode, id,
              "link endpoint out of range");
      continue;
    }
    if (u == v) {
      rep.add(ViolationKind::kSelfLoop, Severity::kError, u, id, "self loop");
    }
  }
  if (adjacency.size() != num_nodes) {
    rep.add(ViolationKind::kNodeIdRange, Severity::kError, kInvalidNode, kInvalidLink,
            "adjacency table has " + std::to_string(adjacency.size()) +
                " rows for " + std::to_string(num_nodes) + " nodes");
    return;
  }

  // Every link must contribute exactly one adjacency half at each endpoint,
  // and every half must reference a link it is actually an endpoint of.
  std::vector<std::uint32_t> half_count(links.size(), 0);
  for (NodeId u = 0; u < num_nodes && !rep.full(); ++u) {
    for (const AdjHalf& h : adjacency[u]) {
      if (h.to >= num_nodes) {
        rep.add(ViolationKind::kNodeIdRange, Severity::kError, u, kInvalidLink,
                "adjacency target out of range");
        continue;
      }
      if (h.link >= links.size()) {
        rep.add(ViolationKind::kLinkIdBijection, Severity::kError, u, kInvalidLink,
                "adjacency half references nonexistent link " + std::to_string(h.link));
        continue;
      }
      const auto [a, b] = links[h.link];
      if (!((a == u && b == h.to) || (a == h.to && b == u))) {
        rep.add(ViolationKind::kLinkIdBijection, Severity::kError, u, h.link,
                "adjacency half (" + std::to_string(u) + " -> " + std::to_string(h.to) +
                    ") is miswired to link (" + std::to_string(a) + ", " +
                    std::to_string(b) + ")");
        continue;
      }
      ++half_count[h.link];
    }
  }
  for (LinkId id = 0; id < links.size() && !rep.full(); ++id) {
    if (!endpoints_ok[id]) continue;
    if (half_count[id] != 2) {
      rep.add(ViolationKind::kAdjacencySymmetry, Severity::kError, links[id].first, id,
              "link appears in " + std::to_string(half_count[id]) +
                  " adjacency halves, expected 2");
    }
  }
}

namespace {

thread_local bool t_in_validation_hook = false;

void validating_generation_hook(const Topology& topo) {
  if (t_in_validation_hook) return;  // validator-internal reconstructions
  const char* env = std::getenv("DSN_VALIDATE");
  if (env == nullptr || *env == '\0' || std::string_view(env) == "0") return;
  t_in_validation_hook = true;
  struct Restore {
    ~Restore() { t_in_validation_hook = false; }
  } restore;
  const ValidatorOptions opts =
      std::string_view(env) == "full" ? ValidatorOptions{} : structural_options();
  const ValidationReport report = validate_topology(topo, opts);
  if (!report.ok()) {
    throw InternalError("DSN_VALIDATE: generated topology failed validation\n" +
                        report.summary());
  }
}

}  // namespace

dsn::TopologyGeneratedHook install_generation_hook() {
  return set_topology_generated_hook(&validating_generation_hook);
}

}  // namespace dsn::check
