// Structured findings emitted by the invariant checker (dsn::check). The
// validator never throws on a bad topology: every broken invariant becomes a
// Violation record so callers (tests, dsn-lint, the DSN_VALIDATE hook) can
// report all problems at once and decide how hard to fail.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dsn/common/types.hpp"

namespace dsn::check {

/// The invariant a Violation refers to. Kept stable and fine-grained so tests
/// can assert the *exact* defect an injected corruption produces.
enum class ViolationKind {
  // Graph-representation invariants.
  kAdjacencySymmetry,   ///< link half present at one endpoint but not the other
  kLinkIdBijection,     ///< adjacency half references a link it is not part of
  kSelfLoop,            ///< link with identical endpoints
  kNodeIdRange,         ///< link endpoint or adjacency target out of [0, n)
  kLinkRoleCount,       ///< link_roles.size() != num_links()
  kLinkRoleInvalid,     ///< role that cannot occur in this topology kind
  kNameMetadata,        ///< name does not encode the kind's expected parameters
  // Topology-level structure.
  kDisconnected,        ///< some node cannot reach some other node
  kRingIncomplete,      ///< ring-based kind missing a (i, i+1 mod n) ring link
  kGridIncomplete,      ///< torus/grid kind missing a lattice or wrap link
  kDegreeBound,         ///< average/exact degree bound of the kind violated
  // DSN shortcut law (paper §IV-A).
  kShortcutMissing,     ///< a level-l <= x node owns no shortcut
  kShortcutWrongTarget, ///< shortcut does not land on the nearest legal target
  kShortcutUnexpected,  ///< shortcut-role link not predicted by the law
  // Route-analyzer verdicts (see route_verdicts.hpp).
  kCdgCyclic,           ///< channel dependency graph has a directed cycle
  kRouteNonNeighbor,    ///< a route hop is not a physical graph link
  kRouteWrongEndpoint,  ///< route does not start at src / end at dst
  kRouteFallback,       ///< DSN routing hit its defensive ring-walk fallback
  kRoutePhaseOrder,     ///< PRE-WORK/MAIN/FINISH phases out of order
  kRouteLoop,           ///< a route revisits a node
  kRouteBoundExceeded,  ///< a route exceeds the paper's analytic hop bound
  kChannelOverload,     ///< static channel load above the configured limit
};

const char* to_string(ViolationKind kind);

/// Errors fail validation; warnings are reported but do not.
enum class Severity : std::uint8_t { kWarning, kError };

const char* to_string(Severity severity);

/// One broken invariant, anchored to a node and/or link where meaningful.
struct Violation {
  ViolationKind kind;
  Severity severity = Severity::kError;
  NodeId node = kInvalidNode;
  LinkId link = kInvalidLink;
  std::string message;

  /// "ERROR shortcut-missing node=17: ..." one-line rendering.
  std::string to_line() const;
};

/// Result of one validation run.
struct ValidationReport {
  std::string topology;           ///< name of the validated topology
  std::size_t checks_run = 0;     ///< number of check families executed
  std::vector<Violation> violations;
  /// Informational findings that are not violations (e.g. the static
  /// channel-load statistics of each all-pairs route check, or a routing
  /// family skipped because it does not apply).
  std::vector<std::string> notes;

  std::size_t errors() const;
  std::size_t warnings() const;
  /// True when no error-severity violation was recorded.
  bool ok() const { return errors() == 0; }
  /// True when `kind` appears among the violations.
  bool has(ViolationKind kind) const;

  /// Multi-line human-readable report (one line per violation + a summary).
  std::string summary() const;
};

}  // namespace dsn::check
