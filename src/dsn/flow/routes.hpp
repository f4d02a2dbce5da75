// dsn-slint: deterministic — flow routes feed byte-identical replay gates;
// BFS tie-breaks follow CSR insertion order, never an address or hash.
//
// Switch-level route provider for the flow tier. A topology routes with the
// analyzer's default family for its kind (analyze::default_family bound by
// analyze::make_route_function: dsn, dsn-d, dor, greedy or updown), and the
// mode is that family's name. Unlike the analyzer (which sweeps all pairs and
// can afford O(n^2) up*/down* tables at small n), the flow tier routes one
// pair per flow at up to millions of switches, so two modes are its own:
//
//   dln-jump — greedy clockwise distance-halving over the DLN's power-of-two
//              spans (loop-free: the clockwise distance strictly decreases);
//   bfs      — per-pair bidirectional BFS shortest path on a CSR snapshot,
//              in place of updown above `updown_max_n` switches
//              (random-regular and friends).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::flow {

class FlowRoutes {
 public:
  /// Bind a route mode to `topo` (kept by reference; must outlive this).
  /// `csr` must be a snapshot of topo.graph. `updown_max_n` caps the switch
  /// count for which the O(n^2)-table up*/down* fallback may be built; larger
  /// irregular topologies fall back to per-pair BFS.
  FlowRoutes(const Topology& topo, const CsrView& csr, std::uint32_t updown_max_n = 4096);

  const std::string& mode() const { return mode_; }

  /// Per-caller scratch: the route buffer the bound modes refill, and the
  /// BFS mode's generation-stamped visit arrays (O(n) each). One per caller,
  /// never shared.
  struct Scratch {
    Route route;
    std::vector<std::uint32_t> stamp_fwd, stamp_bwd;
    std::vector<NodeId> parent_fwd, parent_bwd;
    std::vector<NodeId> fwd, bwd, next;
    std::uint32_t gen = 0;
  };

  /// Write the switch-level node path s .. t (both endpoints included) into
  /// `path`. s == t yields the single-node path {s}. Deterministic: the
  /// path depends only on (s, t).
  void switch_path(NodeId s, NodeId t, Scratch& scratch, std::vector<NodeId>& path) const;

 private:
  void bfs_path(NodeId s, NodeId t, Scratch& scratch, std::vector<NodeId>& path) const;

  const Topology* topo_;
  const CsrView* csr_;
  std::string mode_;
  analyze::BoundRouting bound_;        ///< set unless mode is dln-jump or bfs
  std::vector<std::uint32_t> spans_;   ///< dln-jump: forward spans, descending
};

}  // namespace dsn::flow
