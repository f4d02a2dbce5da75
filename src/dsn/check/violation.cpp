#include "dsn/check/violation.hpp"

#include <algorithm>
#include <sstream>

namespace dsn::check {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kAdjacencySymmetry: return "adjacency-symmetry";
    case ViolationKind::kLinkIdBijection: return "link-id-bijection";
    case ViolationKind::kSelfLoop: return "self-loop";
    case ViolationKind::kNodeIdRange: return "node-id-range";
    case ViolationKind::kLinkRoleCount: return "link-role-count";
    case ViolationKind::kLinkRoleInvalid: return "link-role-invalid";
    case ViolationKind::kNameMetadata: return "name-metadata";
    case ViolationKind::kDisconnected: return "disconnected";
    case ViolationKind::kRingIncomplete: return "ring-incomplete";
    case ViolationKind::kGridIncomplete: return "grid-incomplete";
    case ViolationKind::kDegreeBound: return "degree-bound";
    case ViolationKind::kShortcutMissing: return "shortcut-missing";
    case ViolationKind::kShortcutWrongTarget: return "shortcut-wrong-target";
    case ViolationKind::kShortcutUnexpected: return "shortcut-unexpected";
    case ViolationKind::kCdgCyclic: return "cdg-cyclic";
    case ViolationKind::kRouteNonNeighbor: return "route-non-neighbor";
    case ViolationKind::kRouteWrongEndpoint: return "route-wrong-endpoint";
    case ViolationKind::kRouteFallback: return "route-fallback";
    case ViolationKind::kRoutePhaseOrder: return "route-phase-order";
    case ViolationKind::kRouteLoop: return "route-loop";
    case ViolationKind::kRouteBoundExceeded: return "route-bound-exceeded";
    case ViolationKind::kChannelOverload: return "channel-overload";
  }
  return "unknown";
}

const char* to_string(Severity severity) {
  return severity == Severity::kError ? "ERROR" : "WARNING";
}

std::string Violation::to_line() const {
  std::ostringstream os;
  os << to_string(severity) << " " << to_string(kind);
  if (node != kInvalidNode) os << " node=" << node;
  if (link != kInvalidLink) os << " link=" << link;
  os << ": " << message;
  return os.str();
}

std::size_t ValidationReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [](const Violation& v) { return v.severity == Severity::kError; }));
}

std::size_t ValidationReport::warnings() const {
  return violations.size() - errors();
}

bool ValidationReport::has(ViolationKind kind) const {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  for (const Violation& v : violations) os << v.to_line() << "\n";
  for (const std::string& n : notes) os << "note: " << n << "\n";
  os << topology << ": " << checks_run << " checks, " << errors() << " errors, "
     << warnings() << " warnings";
  return os.str();
}

}  // namespace dsn::check
