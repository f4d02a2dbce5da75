// The DSN custom routing algorithm (paper §IV-B, Fig. 2) and its variants:
//  - basic three-phase routing (PRE-WORK, MAIN-PROCESS, FINISH);
//  - nearest-direction PRE-WORK (used in the Fact-3 diameter argument);
//  - overshoot-avoiding variant (§V-D);
//  - DSN-D routing that exploits express links in the local-walk phases.
//
// DsnRouter::step is the one per-hop routing function: route() is a loop
// over it, and the flit simulator's DsnCustomPolicy calls it at every switch,
// so the routes the analyzer proves (Theorems 2-3) and the flow tier loads
// are exactly the routes the flit simulator walks.
#pragma once

#include "dsn/routing/route.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace dsn {

struct DsnRoutingOptions {
  /// §V-D: when the selected shortcut would overshoot the destination, step
  /// to the successor and take its (shorter) shortcut instead.
  bool avoid_overshoot = false;
  /// Fact 3: in PRE-WORK move toward the *nearest* node of the required
  /// level, clockwise or counterclockwise, instead of always counterclockwise.
  bool nearest_prework = false;
};

/// Where a DSN walk stands between hops. A walk's state never decreases.
enum class DsnWalkState : std::uint8_t {
  kSource,      ///< at the source, before the tests route() makes only there
  kPreWork,     ///< descending to the required shortcut level
  kMain,        ///< distance-halving shortcut walk
  kFinish,      ///< ring walk along the shorter direction
  kFinishSucc,  ///< ring walk held clockwise (a detour around a dead link)
  kFinishPred,  ///< ring walk held counterclockwise (likewise)
};

/// One hop of a DSN walk and the walk state after it. The phase is the
/// hop's; the state can be a later one (an overshooting MAIN shortcut ends
/// MAIN, so the walk continues in FINISH).
struct DsnStep {
  NodeId next;
  HopKind kind;
  RoutePhase phase;
  DsnWalkState state;
};

/// Stateless router over a basic DSN. Routes are deterministic.
class DsnRouter {
 public:
  explicit DsnRouter(const Dsn& dsn, DsnRoutingOptions options = {});

  /// Compute the full route from s to t. s == t yields an empty route.
  Route route(NodeId s, NodeId t) const;

  /// The same route written into `out` (see Route::reset), so a sweep can
  /// reuse one buffer.
  void route(NodeId s, NodeId t, Route& out) const;

  /// The hop a walk in `state` takes from u toward t (u != t). Walking from
  /// kSource yields route(s, t) hop for hop, except for the nearest_prework
  /// prefix, which only route() takes.
  DsnStep step(NodeId u, NodeId t, DsnWalkState state) const;

  /// Required shortcut level for clockwise distance d: l = floor(log2(n/d))+1,
  /// clamped to [1, p]; satisfies n/2^l <= d (approximately, integer math).
  std::uint32_t level_for_distance(std::uint64_t d) const;

  const Dsn& dsn() const { return *dsn_; }
  const DsnRoutingOptions& options() const { return options_; }

 private:
  /// step()'s body, which route() inlines into its per-hop loop.
  DsnStep step_impl(NodeId u, NodeId t, DsnWalkState state) const;

  /// Fact 3: walk from u toward the nearest node of the required level, in
  /// either ring direction, appending PRE-WORK hops.
  void nearest_prework_prefix(NodeId& u, NodeId t, std::vector<RouteHop>& hops) const;

  const Dsn* dsn_;
  DsnRoutingOptions options_;
};

/// Route on a DSN-D using express links to shorten PRE-WORK and FINISH.
Route route_dsn_d(const DsnD& d, NodeId s, NodeId t);

/// The same route written into `out` (see Route::reset).
void route_dsn_d(const DsnD& d, NodeId s, NodeId t, Route& out);

/// Route on a flexible DSN: minor destinations are reached through the
/// preceding major node, then by succ links (§V-C).
Route route_dsn_flex(const FlexDsn& f, NodeId s, NodeId t);

}  // namespace dsn
