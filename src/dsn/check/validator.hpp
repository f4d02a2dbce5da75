// The invariant checker (the "tentpole" of the correctness-tooling layer).
//
// validate_topology runs a battery of structural checks over any Topology:
//  - graph representation: adjacency symmetry, link-id bijection, self loops,
//    id ranges, link_roles parallel-array consistency, per-kind role legality;
//  - connectivity;
//  - ring/grid completeness for ring- and lattice-based kinds;
//  - degree bounds (e.g. average degree <= 4 for basic DSN-x-n — Theorem 1);
//  - the DSN shortcut law (§IV-A): every level-l <= x node's shortcut lands on
//    the *nearest clockwise* level-(l+1) node at ring distance >= floor(n/2^l),
//    re-derived here from the paper's definition, independent of the generator;
//  - route checks, read from the whole-network route analyzer (dsn::analyze)
//    through route_violations: the kind's native routing family (DSN custom,
//    DSN-D express, torus DOR, grid greedy or up*/down*) and, when that is not
//    up*/down*, up*/down* as well. Every route must be loop-free, start and
//    end at the right nodes, hop only over physical links, keep its phases in
//    order, respect the analytic hop bound and never fall back; the CDG must
//    be acyclic where deadlock freedom is claimed (up*/down*, and the
//    extended DSN scheme of DSN-E and DSN-D). The validator walks no route
//    itself.
//
// Violations are *reported*, not thrown, so one run surfaces every problem;
// a report keeps the first 256 (a corrupt topology can otherwise produce O(n)
// repeats of the same defect).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dsn/check/violation.hpp"
#include "dsn/graph/graph.hpp"
#include "dsn/topology/hooks.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::check {

struct ValidatorOptions {
  /// Route checks: the analyzer's route verdicts and CDG acyclicity (see the
  /// file comment).
  bool check_routing = true;
  /// Flag kChannelOverload when the native family's normalized maximum
  /// channel load (max_load / (n-1)) exceeds this limit; 0 disables it.
  /// Judged on all-pairs runs only.
  double max_normalized_load = 0.0;
  /// Every ordered pair is routed when n <= this, and each family's static
  /// channel load rides along as a report note. Above it only the native
  /// family runs (up*/down* tables are O(n^2)), from the routing_sources
  /// sample to every destination.
  std::uint32_t max_cdg_nodes = 1024;
};

/// The sources the route checks route from, each to every destination: all
/// n nodes when n <= all_pairs_nodes; otherwise a strided sample that always
/// contains 0 and n-1 (so the extreme pairs (0, n-1) and (n-1, 0) are
/// routed) and, for DSN kinds, the DSN routing's worst-case nodes: both ends
/// of the Extra-channel window [0, 2p], a full-super-node crossing and the
/// last super node. Sorted and duplicate-free.
std::vector<NodeId> routing_sources(const Topology& topo, std::uint32_t all_pairs_nodes);

/// Structural lint options: representation + topology-shape checks only.
/// This is what the DSN_VALIDATE=1 generation hook runs (O(V + E)-ish).
ValidatorOptions structural_options();

/// Run every applicable check family; never throws on a bad topology.
ValidationReport validate_topology(const Topology& topo, const ValidatorOptions& options = {});

/// Graph-representation checks over *raw* adjacency/link arrays. Exposed so
/// the checker's own property tests can inject corruptions (asymmetric
/// adjacency, miswired link ids) that the Graph API makes unrepresentable.
void check_raw_graph(NodeId num_nodes,
                     const std::vector<std::pair<NodeId, NodeId>>& links,
                     const std::vector<std::vector<AdjHalf>>& adjacency,
                     ValidationReport& report);

/// Install a topology-generation hook (see dsn/topology/hooks.hpp) that runs
/// the structural checks on every freshly generated topology and throws
/// dsn::InternalError when any error-severity violation is found. The hook is
/// a no-op unless the DSN_VALIDATE environment variable is set to a non-empty,
/// non-"0" value; DSN_VALIDATE=full additionally enables the route checks.
/// Returns the previously installed hook.
dsn::TopologyGeneratedHook install_generation_hook();

}  // namespace dsn::check
