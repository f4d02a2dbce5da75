#include "dsn/check/route_verdicts.hpp"

#include <cstdio>
#include <string>

namespace dsn::check {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// A property the analyzer refuted without keeping a witness.
Violation unwitnessed(ViolationKind kind) {
  return {kind, Severity::kError, kInvalidNode, kInvalidLink,
          "refuted by the route analysis (no witness kept)"};
}

/// One violation per witness of a refuted route property; `suffix` is
/// appended to each witness's reason.
void add_route_property(bool holds, const std::vector<analyze::RouteWitness>& witnesses,
                        ViolationKind kind, const std::string& suffix,
                        std::vector<Violation>& out) {
  if (holds) return;
  if (witnesses.empty()) out.push_back(unwitnessed(kind));
  for (const analyze::RouteWitness& w : witnesses) {
    out.push_back({kind, Severity::kError, w.src, kInvalidLink,
                   "route (" + std::to_string(w.src) + ", " + std::to_string(w.dst) +
                       "): " + w.reason + suffix});
  }
}

}  // namespace

std::vector<Violation> route_violations(const Topology& topo,
                                        const analyze::RouteAnalysis& ra,
                                        const VerdictSelection& select) {
  std::vector<Violation> out;
  if (select.routes) {
    add_route_property(ra.loop_free, ra.loop_witnesses, ViolationKind::kRouteLoop, "", out);
    add_route_property(ra.all_reachable, ra.endpoint_witnesses,
                       ViolationKind::kRouteWrongEndpoint, "", out);
    if (!ra.hops_on_links && ra.non_link_channels.empty())
      out.push_back(unwitnessed(ViolationKind::kRouteNonNeighbor));
    for (const Channel& c : ra.non_link_channels) {
      out.push_back({ViolationKind::kRouteNonNeighbor, Severity::kError, c.from, kInvalidLink,
                     "route hop " + analyze::render_channel(topo, c, ra.scheme)});
    }
    add_route_property(ra.phases_ordered, ra.phase_witnesses, ViolationKind::kRoutePhaseOrder,
                       "", out);
    if (select.strict) {
      add_route_property(ra.within_hop_bound, ra.bound_witnesses,
                         ViolationKind::kRouteBoundExceeded, " (" + ra.hop_bound_law + ")",
                         out);
      if (ra.fallback_routes > 0) {
        out.push_back({ViolationKind::kRouteFallback, Severity::kError, kInvalidNode,
                       kInvalidLink,
                       std::to_string(ra.fallback_routes) +
                           " routes hit the defensive fallback"});
      }
    }
  }
  if (select.cdg && !ra.cdg_acyclic) {
    out.push_back({ViolationKind::kCdgCyclic, Severity::kError, kInvalidNode, kInvalidLink,
                   std::string(analyze::to_string(ra.family)) +
                       " channel dependency graph (" + analyze::to_string(ra.scheme) +
                       " scheme) has a directed cycle\n" +
                       analyze::render_cycle_witness(topo, ra.cdg_cycle, ra.scheme)});
  }
  if (select.max_normalized_load > 0.0 && ra.load.max_normalized > select.max_normalized_load) {
    out.push_back({ViolationKind::kChannelOverload, Severity::kError, ra.load.max_channel.from,
                   kInvalidLink,
                   "channel " + analyze::render_channel(topo, ra.load.max_channel, ra.scheme) +
                       " carries normalized load " + format_double(ra.load.max_normalized) +
                       " > limit " + format_double(select.max_normalized_load)});
  }
  return out;
}

}  // namespace dsn::check
