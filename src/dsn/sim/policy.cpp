#include "dsn/sim/policy.hpp"

#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dor.hpp"

namespace dsn {

// ---------------------------------------------------------------------------
// UpDownTablePolicy — the recovery step of both up*/down* policies: rebuild
// the full SimRouting tables over the alive subgraph, rooted at the lowest
// alive switch (the pristine root may be halted).
// ---------------------------------------------------------------------------

void UpDownTablePolicy::on_fault_update(const FaultView& view) {
  if (view.all_alive()) {
    degraded_.reset();
    return;
  }
  NodeId root = kInvalidNode;
  for (NodeId v = 0; v < view.switch_alive.size(); ++v) {
    if (view.switch_alive[v]) {
      root = v;
      break;
    }
  }
  DSN_REQUIRE(root != kInvalidNode, "at least one switch must stay alive");
  degraded_ = std::make_unique<SimRouting>(*view.topo, view.link_alive, view.switch_alive,
                                           root, rebuild_pool_);
}

// ---------------------------------------------------------------------------
// AdaptiveUpDownPolicy — state bit 0 holds the escape "down-only" flag.
// ---------------------------------------------------------------------------

AdaptiveUpDownPolicy::AdaptiveUpDownPolicy(const SimRouting& routing, std::uint32_t vcs,
                                           ThreadPool* rebuild_pool)
    : UpDownTablePolicy(routing, vcs, rebuild_pool) {
  DSN_REQUIRE(vcs >= 2, "adaptive policy needs >= 2 VCs (escape + adaptive)");
}

void AdaptiveUpDownPolicy::candidates(NodeId u, NodeId t, std::uint8_t state,
                                      std::vector<RouteCandidate>& out) const {
  const SimRouting& tables = table();
  out.clear();
  // Adaptive minimal hops on VCs 1..V-1, preferred over the escape VC. The
  // down-only restriction applies to *consecutive* escape hops: virtual
  // cut-through absorbs whole packets on adaptive channels, which resets the
  // escape history (Duato's theory for VCT).
  tables.for_each_minimal_next_hop(u, t, [&](NodeId v) {
    for (std::uint32_t vc = 1; vc < vcs_; ++vc) {
      out.push_back({v, vc, /*escape=*/false, /*state=*/0});
    }
  });
  // Escape hop on VC 0 following up*/down*, honoring the down-only state.
  const bool down_only = (state & 1u) != 0;
  const NodeId esc = tables.escape_next_hop(u, t, down_only);
  if (esc != kInvalidNode) {
    out.push_back({esc, 0, /*escape=*/true,
                   static_cast<std::uint8_t>(tables.escape_hop_is_down(u, esc) ? 1 : 0)});
  }
}

// ---------------------------------------------------------------------------
// UpDownOnlyPolicy — state bit 0 holds the sticky down-only flag.
// ---------------------------------------------------------------------------

UpDownOnlyPolicy::UpDownOnlyPolicy(const SimRouting& routing, std::uint32_t vcs,
                                   ThreadPool* rebuild_pool)
    : UpDownTablePolicy(routing, vcs, rebuild_pool) {
  DSN_REQUIRE(vcs >= 1, "need at least one VC");
}

void UpDownOnlyPolicy::candidates(NodeId u, NodeId t, std::uint8_t state,
                                  std::vector<RouteCandidate>& out) const {
  out.clear();
  const bool down_only = (state & 1u) != 0;
  const NodeId v = table().escape_next_hop(u, t, down_only);
  if (v == kInvalidNode) return;
  // Plain up*/down*: once the path turns downward it stays downward.
  const auto next = static_cast<std::uint8_t>(
      down_only || table().escape_hop_is_down(u, v) ? 1 : 0);
  for (std::uint32_t vc = 0; vc < vcs_; ++vc) {
    out.push_back({v, vc, /*escape=*/true, next});
  }
}

// ---------------------------------------------------------------------------
// DsnCustomPolicy — state holds the DsnWalkState.
// ---------------------------------------------------------------------------

DsnCustomPolicy::DsnCustomPolicy(const Dsn& dsn, std::uint32_t vcs)
    : router_(dsn), vcs_per_class_(vcs / 4) {
  DSN_REQUIRE(vcs >= 4 && vcs % 4 == 0, "dsn-custom needs a multiple of 4 VCs");
}

const char* DsnCustomPolicy::phase_name(std::uint8_t state) const {
  switch (static_cast<DsnWalkState>(state)) {
    case DsnWalkState::kSource: return nullptr;
    case DsnWalkState::kPreWork: return "prework";
    case DsnWalkState::kMain: return "main";
    case DsnWalkState::kFinish:
    case DsnWalkState::kFinishSucc:
    case DsnWalkState::kFinishPred: return "finish";
  }
  return nullptr;
}

bool DsnCustomPolicy::hop_alive(NodeId u, NodeId v) const {
  if (!switch_alive_[v]) return false;
  for (const AdjHalf& h : fault_topo_->graph.neighbors(u)) {
    if (h.to == v && link_alive_[h.link]) return true;
  }
  return false;
}

void DsnCustomPolicy::on_fault_update(const FaultView& view) {
  fault_topo_ = view.topo;
  link_alive_.assign(view.link_alive.begin(), view.link_alive.end());
  switch_alive_.assign(view.switch_alive.begin(), view.switch_alive.end());
  degraded_ = !view.all_alive();
}

void DsnCustomPolicy::candidates(NodeId u, NodeId t, std::uint8_t state,
                                 std::vector<RouteCandidate>& out) const {
  out.clear();
  DsnStep hop = router_.step(u, t, static_cast<DsnWalkState>(state));
  if (degraded_ && !hop_alive(u, hop.next)) {
    if (hop.phase == RoutePhase::kPreWork) {
      // PRE-WORK blocked by a dead descent link: skip ahead to MAIN here.
      hop = router_.step(u, t, DsnWalkState::kMain);
    }
    if (!hop_alive(u, hop.next)) {
      if (hop.kind == HopKind::kShortcut) {
        // Dead shortcut: walk around it on ring hops, staying in MAIN.
        hop = {router_.dsn().succ(u), HopKind::kSucc, RoutePhase::kMain, DsnWalkState::kMain};
      } else if (hop.state < DsnWalkState::kFinishSucc) {
        // Dead ring hop: detour the other way round the ring. The walk state
        // holds the direction, so no later switch turns back toward the dead
        // link; a detour that meets a second dead link is stranded.
        hop = router_.step(u, t, hop.kind == HopKind::kSucc ? DsnWalkState::kFinishPred
                                                            : DsnWalkState::kFinishSucc);
      }
      if (!hop_alive(u, hop.next)) return;  // stranded: TTL accounts the packet
    }
  }
  // Expand the hop's channel class into its vcs_per_class physical VCs.
  const std::uint32_t base =
      dsn_hop_class(router_.dsn(), t, {u, hop.next, hop.phase, hop.kind}) * vcs_per_class_;
  const auto next_state = static_cast<std::uint8_t>(hop.state);
  for (std::uint32_t k = 0; k < vcs_per_class_; ++k) {
    out.push_back({hop.next, base + k, /*escape=*/false, next_state});
  }
}

// ---------------------------------------------------------------------------
// RingClockwisePolicy — intentionally unsafe negative control.
// ---------------------------------------------------------------------------

RingClockwisePolicy::RingClockwisePolicy(const Topology& ring) : topo_(&ring) {
  DSN_REQUIRE(ring.kind == TopologyKind::kRing, "needs a plain ring topology");
}

void RingClockwisePolicy::candidates(NodeId u, NodeId t, std::uint8_t /*state*/,
                                     std::vector<RouteCandidate>& out) const {
  out.clear();
  if (u == t) return;
  const NodeId succ = (u + 1) % topo_->num_nodes();
  // Single VC, single direction: the textbook deadlocked ring.
  out.push_back({succ, 0, /*escape=*/false, /*state=*/0});
}

// ---------------------------------------------------------------------------
// TorusDorPolicy — state encodes (active dimension + 1) << 1 | crossed, so
// the dateline bit resets whenever the packet turns into a new dimension.
// ---------------------------------------------------------------------------

TorusDorPolicy::TorusDorPolicy(const Topology& torus, std::uint32_t vcs)
    : topo_(&torus) {
  DSN_REQUIRE(torus.kind == TopologyKind::kTorus2D ||
                  torus.kind == TopologyKind::kTorus3D,
              "TorusDorPolicy needs a torus topology");
  DSN_REQUIRE(vcs >= 2 * torus.dims.size(),
              "dateline DOR needs 2 VCs per torus dimension");
}

void TorusDorPolicy::candidates(NodeId u, NodeId t, std::uint8_t state,
                                std::vector<RouteCandidate>& out) const {
  out.clear();
  const DorStep step = torus_dor_next_hop(*topo_, u, t);
  if (step.next == kInvalidNode) return;
  const bool crossed =
      static_cast<std::uint32_t>(state >> 1) == step.dim + 1 && (state & 1u) != 0;
  // Wrap hops (size-1 <-> 0) cross the dateline of the dimension.
  out.push_back({step.next, 2 * step.dim + (crossed ? 1u : 0u),
                 /*escape=*/false,
                 static_cast<std::uint8_t>(((step.dim + 1) << 1) |
                                           ((crossed || step.wrap) ? 1u : 0u))});
}

}  // namespace dsn
