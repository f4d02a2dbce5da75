#include "dsn/topology/dsn_ext.hpp"

#include <algorithm>

#include "dsn/common/math.hpp"
#include "dsn/topology/hooks.hpp"

namespace dsn {

// ---------------------------------------------------------------------------
// DSN-E
// ---------------------------------------------------------------------------

DsnE::DsnE(std::uint32_t n) : base_(n, dsn_default_x(n)) {
  const std::uint32_t p = base_.p();
  DSN_REQUIRE(2 * p <= n, "DSN-E needs n >= 2p for the Extra-link ring prefix");

  topology_ = base_.topology();
  topology_.name = "dsn-e-" + std::to_string(n);
  topology_.kind = TopologyKind::kDsnE;

  // Up links: one physical (i, pred(i)) link per node, parallel to the ring.
  up_link_.assign(n, kInvalidLink);
  for (NodeId i = 0; i < n; ++i) {
    up_link_[i] = topology_.graph.add_link(i, base_.pred(i));
    topology_.link_roles.push_back(LinkRole::kUp);
  }

  // Extra links: (i, i-1) for i = 1..2p, breaking FINISH-phase ring cycles.
  extra_link_.assign(2 * p + 1, kInvalidLink);
  for (NodeId i = 1; i <= 2 * p; ++i) {
    extra_link_[i] = topology_.graph.add_link(i, i - 1);
    topology_.link_roles.push_back(LinkRole::kExtra);
  }
  detail::notify_topology_generated(topology_);
}

// ---------------------------------------------------------------------------
// DSN-D
// ---------------------------------------------------------------------------

std::uint32_t DsnD::base_x(std::uint32_t n) {
  DSN_REQUIRE(n >= 8, "DSN-D needs at least 8 nodes");
  const std::uint32_t p = ilog2_ceil(n);
  const std::uint32_t x = p - ilog2_ceil(p);
  return std::max<std::uint32_t>(1, x);
}

DsnD::DsnD(std::uint32_t n, std::uint32_t express_per_super_node)
    : base_(n, base_x(n)), xd_(express_per_super_node) {
  DSN_REQUIRE(xd_ >= 1, "DSN-D needs at least one express link per super node");
  const std::uint32_t p = base_.p();
  DSN_REQUIRE(xd_ < p, "DSN-D express count must be < p");
  q_ = static_cast<std::uint32_t>(ceil_div(p, xd_));
  DSN_REQUIRE(q_ >= 2, "express span must be >= 2 (q = ceil(p/x))");

  topology_ = base_.topology();
  topology_.name =
      "dsn-d-" + std::to_string(xd_) + "-" + std::to_string(n);
  topology_.kind = TopologyKind::kDsnD;

  // Express links between consecutive multiples of q around the ring,
  // including the wrap link back to node 0 (§V-B construction).
  for (NodeId a = 0; a < n; a = a + q_) {
    const NodeId b = (a + q_ >= n) ? 0 : a + q_;
    if (b == a || b == base_.succ(a)) continue;  // degenerate near the wrap
    if (!topology_.graph.has_link(a, b)) {
      topology_.graph.add_link(a, b);
      topology_.link_roles.push_back(LinkRole::kDLocal);
    }
    if (b == 0) break;
  }
  detail::notify_topology_generated(topology_);
}

// ---------------------------------------------------------------------------
// Flexible DSN
// ---------------------------------------------------------------------------

FlexDsn::FlexDsn(std::uint32_t n_major, std::uint32_t x, std::vector<NodeId> insert_after)
    : base_(n_major, x) {
  DSN_REQUIRE(std::is_sorted(insert_after.begin(), insert_after.end()) &&
                  std::adjacent_find(insert_after.begin(), insert_after.end()) ==
                      insert_after.end(),
              "insert_after must be strictly increasing");
  DSN_REQUIRE(insert_after.empty() || insert_after.back() < n_major,
              "insert_after ids must be < n_major");

  const std::uint32_t n_total = n_major + static_cast<std::uint32_t>(insert_after.size());
  topology_.name = "dsn-flex-" + std::to_string(x) + "-" + std::to_string(n_major) + "+" +
                   std::to_string(insert_after.size());
  topology_.kind = TopologyKind::kDsnFlex;
  topology_.graph = Graph(n_total);

  // Lay out the physical ring: majors in order, each optionally followed by
  // one minor node.
  major_of_.assign(n_total, kInvalidNode);
  phys_of_.assign(n_major, kInvalidNode);
  std::size_t next_minor = 0;
  NodeId phys = 0;
  for (NodeId major = 0; major < n_major; ++major) {
    major_of_[phys] = major;
    phys_of_[major] = phys;
    ++phys;
    if (next_minor < insert_after.size() && insert_after[next_minor] == major) {
      // The node at `phys` stays a minor (major_of_ already kInvalidNode).
      ++phys;
      ++next_minor;
    }
  }
  DSN_ASSERT(phys == n_total, "physical ring layout mismatch");

  // Ring links over all physical nodes.
  for (NodeId i = 0; i < n_total; ++i) {
    topology_.graph.add_link(i, (i + 1) % n_total);
    topology_.link_roles.push_back(LinkRole::kRing);
  }
  // Shortcuts between the physical positions of the DSN shortcut endpoints.
  for (NodeId major = 0; major < n_major; ++major) {
    const NodeId target = base_.shortcut_target(major);
    if (target == kInvalidNode) continue;
    const NodeId a = phys_of_[major];
    const NodeId b = phys_of_[target];
    if (!topology_.graph.has_link(a, b)) {
      topology_.graph.add_link(a, b);
      topology_.link_roles.push_back(LinkRole::kShortcut);
    }
  }
  detail::notify_topology_generated(topology_);
}

// ---------------------------------------------------------------------------
// Degree-6 bidirectional DSN
// ---------------------------------------------------------------------------

Topology make_dsn_bidir(std::uint32_t n) {
  const Dsn base(n, dsn_default_x(n));
  Topology topo = base.topology();
  topo.name = "dsn-bidir-" + std::to_string(n);
  topo.kind = TopologyKind::kDsnBidir;
  // Mirror the shortcut set: a CW shortcut (a -> b) reflected through the
  // ring (i <-> n-1-i) becomes a CCW shortcut (n-1-a -> n-1-b).
  for (NodeId a = 0; a < n; ++a) {
    const NodeId b = base.shortcut_target(a);
    if (b == kInvalidNode) continue;
    const NodeId ma = n - 1 - a;
    const NodeId mb = n - 1 - b;
    if (!topo.graph.has_link(ma, mb)) {
      topo.graph.add_link(ma, mb);
      topo.link_roles.push_back(LinkRole::kShortcut);
    }
  }
  detail::notify_topology_generated(topo);
  return topo;
}

std::optional<DsnParams> parse_dsn_params(const Topology& topo) {
  const std::uint32_t n = topo.num_nodes();
  if (n < 8) return std::nullopt;
  DsnParams params;
  params.n = n;
  params.p = ilog2_ceil(n);
  // Name numbers are range-checked before they narrow to 32 bits.
  const std::vector<std::uint64_t> nums = name_numbers(topo.name);
  switch (topo.kind) {
    case TopologyKind::kDsn:
      if (nums.size() != 2 || nums[1] != n || nums[0] >= params.p) return std::nullopt;
      params.x = static_cast<std::uint32_t>(nums[0]);
      break;
    case TopologyKind::kDsnE:
      if (nums.size() != 1 || nums[0] != n) return std::nullopt;
      params.x = params.p - 1;
      break;
    case TopologyKind::kDsnBidir:
      if (nums.size() != 1 || nums[0] != n) return std::nullopt;
      params.x = params.p - 1;
      params.mirrored = true;
      break;
    case TopologyKind::kDsnD:
      if (nums.size() != 2 || nums[1] != n || nums[0] < 1 || nums[0] >= params.p)
        return std::nullopt;
      params.xd = static_cast<std::uint32_t>(nums[0]);
      params.x = std::max<std::uint32_t>(1, params.p - ilog2_ceil(params.p));
      break;
    default:
      return std::nullopt;
  }
  if (params.x < 1 || params.x > params.p - 1) return std::nullopt;
  return params;
}

DsnParams require_dsn_params(const Topology& topo, std::initializer_list<TopologyKind> kinds,
                             const std::string& user) {
  const bool applies = std::find(kinds.begin(), kinds.end(), topo.kind) != kinds.end();
  const std::optional<DsnParams> params = parse_dsn_params(topo);
  if (!applies || !params) {
    throw PreconditionError(user + " does not apply to " + topo.name + ", a " +
                            to_string(topo.kind) + " topology" +
                            (applies ? " whose name does not encode its parameters" : ""));
  }
  return *params;
}

NodeId FlexDsn::preceding_major(NodeId phys) const {
  DSN_REQUIRE(phys < num_total(), "node id out of range");
  NodeId v = phys;
  for (std::uint32_t step = 0; step < num_total(); ++step) {
    if (major_of_[v] != kInvalidNode) return v;
    v = v == 0 ? num_total() - 1 : v - 1;
  }
  DSN_ASSERT(false, "no major node found");
  return kInvalidNode;
}

}  // namespace dsn
