// The one converter from route-analyzer verdicts to violations. The
// validator and dsn-lint's routes / cdg / load subcommands both read a
// dsn::analyze::RouteAnalysis through it, so a refuted property reads the
// same wherever it is reported.
#pragma once

#include <vector>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/check/violation.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::check {

/// Which verdicts of a RouteAnalysis become violations.
struct VerdictSelection {
  /// Per-route properties: route-loop, route-wrong-endpoint,
  /// route-non-neighbor and route-phase-order.
  bool routes = true;
  /// With `routes`: also route-bound-exceeded and route-fallback.
  bool strict = true;
  /// cdg-cyclic, with the rendered minimal cycle witness.
  bool cdg = true;
  /// channel-overload when the normalized maximum channel load exceeds this;
  /// 0 disables it.
  double max_normalized_load = 0.0;
};

/// The violations the selected verdicts of `ra` amount to, in the order
/// listed above: one per kept witness, or one without a witness when the
/// analyzer refuted a property but kept none. `topo` is the topology the
/// routes ran on; it names the physical link of each rendered channel.
std::vector<Violation> route_violations(const Topology& topo,
                                        const analyze::RouteAnalysis& ra,
                                        const VerdictSelection& select);

}  // namespace dsn::check
