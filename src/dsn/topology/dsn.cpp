#include "dsn/topology/dsn.hpp"

#include "dsn/common/math.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/topology/hooks.hpp"

namespace dsn {

Dsn::Dsn(std::uint32_t n, std::uint32_t x) : n_(n), p_(0), x_(x), r_(0) {
  DSN_REQUIRE(n >= 8, "DSN needs at least 8 nodes (p >= 3)");
  p_ = ilog2_ceil(n);
  r_ = n % p_;
  DSN_REQUIRE(x >= 1 && x <= p_ - 1, "DSN requires 1 <= x <= p-1");

  shortcut_target_.assign(n_, kInvalidNode);

  topology_.name = "dsn-" + std::to_string(x_) + "-" + std::to_string(n_);
  topology_.kind = TopologyKind::kDsn;
  topology_.graph = Graph(n_);

  // Ring links.
  for (NodeId i = 0; i < n_; ++i) {
    topology_.graph.add_link(i, succ(i));
    topology_.link_roles.push_back(LinkRole::kRing);
  }

  // Level-l shortcuts: node i (level l <= x) connects to the first clockwise
  // node j with level l+1 at ring distance >= floor(n/2^l).
  DSN_OBS_ONLY(std::vector<std::uint64_t> shortcuts_per_level(x_ + 1, 0);)
  for (NodeId i = 0; i < n_; ++i) {
    const std::uint32_t l = level(i);
    if (l > x_) continue;
    DSN_OBS_ONLY(++shortcuts_per_level[l];)
    const std::uint32_t min_span = shortcut_min_span(l);
    // Candidates with level l+1 satisfy j mod p == l; scan clockwise from the
    // minimum span. The scan is bounded by n (levels repeat every p ids, but
    // the incomplete final super node can shift the residue pattern once).
    NodeId j = static_cast<NodeId>((static_cast<std::uint64_t>(i) + min_span) % n_);
    std::uint32_t scanned = 0;
    while (j % p_ != l) {
      j = succ(j);
      ++scanned;
      DSN_ASSERT(scanned <= n_, "no level-(l+1) node found on the ring");
    }
    DSN_ASSERT(j != i, "shortcut degenerated to a self loop");
    shortcut_target_[i] = j;
    // A minimal-span shortcut can coincide with the ring link (i, i+1) when
    // floor(n/2^l) == 1; keep the structural target but do not duplicate the
    // physical link.
    if (!topology_.graph.has_link(i, j)) {
      topology_.graph.add_link(i, j);
      topology_.link_roles.push_back(LinkRole::kShortcut);
    }
  }
#if DSN_OBS
  // Per-level construction counters accumulate locally and publish once, so
  // the generator's hot loop never touches the registry mutex.
  if (obs::metrics_on()) {
    auto& registry = obs::MetricsRegistry::global();
    const obs::MetricId total = registry.counter("dsn.topology.shortcuts");
    for (std::uint32_t l = 0; l <= x_; ++l) {
      if (shortcuts_per_level[l] == 0) continue;
      registry.add(total, shortcuts_per_level[l]);
      registry.add(
          registry.counter("dsn.topology.shortcuts.level" + std::to_string(l)),
          shortcuts_per_level[l]);
    }
  }
#endif
  detail::notify_topology_generated(topology_);
}

Topology make_dsn(std::uint32_t n, std::uint32_t x) { return Dsn(n, x).topology(); }

std::uint32_t dsn_default_x(std::uint32_t n) {
  DSN_REQUIRE(n >= 8, "DSN needs at least 8 nodes");
  return ilog2_ceil(n) - 1;
}

}  // namespace dsn
