// Per-hop routing decisions for the simulator, decoupled from the engine.
//
// AdaptiveUpDownPolicy implements the paper's §VII-A scheme [24]: fully
// adaptive minimal routing on VCs 1..V-1 with up*/down* shortest legal paths
// as the escape layer on VC 0 (Duato's methodology for virtual cut-through).
// Its minimal hops are read per call off SimRouting's distance table.
//
// DsnCustomPolicy runs the paper's deadlock-free custom routing (Theorem 3,
// DSN-V realization) by calling DsnRouter::step at every switch, with the
// router's default options: the packet walks exactly the route the analyzer
// proves and the flow tier loads. Each hop rides the virtual channels of its
// DsnChannelClass (dsn_hop_class): PRE-WORK on Up, MAIN on Main, FINISH on
// Finish, with Extra channels near node 0. The walk state only ever advances
// (PRE-WORK -> MAIN -> FINISH), which is what makes the channel dependency
// graph acyclic.
//
// Each policy threads a small opaque per-packet `state` byte through the
// engine: the adaptive policy stores its escape down-only bit, the custom
// policy its DsnWalkState. Every candidate carries the state the packet
// takes if the simulator grants it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {

class ThreadPool;

/// One admissible (next switch, virtual channel) pair, in preference order.
struct RouteCandidate {
  NodeId next;
  std::uint32_t vc;
  bool escape;         ///< true when this candidate uses the escape layer
  std::uint8_t state;  ///< the packet's routing state once this hop is granted
};

/// Snapshot of the simulator's live fault state handed to
/// SimRoutingPolicy::on_fault_update (masks indexed by LinkId / NodeId;
/// spans stay valid only for the duration of the call).
struct FaultView {
  const Topology* topo = nullptr;
  std::span<const std::uint8_t> link_alive;
  std::span<const std::uint8_t> switch_alive;

  bool all_alive() const {
    for (const std::uint8_t a : link_alive) {
      if (!a) return false;
    }
    for (const std::uint8_t a : switch_alive) {
      if (!a) return false;
    }
    return true;
  }
};

class SimRoutingPolicy {
 public:
  virtual ~SimRoutingPolicy() = default;
  virtual const char* name() const = 0;

  /// Routing state of a freshly injected packet.
  virtual std::uint8_t initial_state() const { return 0; }

  /// Fill `out` with admissible candidates for a packet at switch u headed to
  /// switch t, given the packet's routing state.
  virtual void candidates(NodeId u, NodeId t, std::uint8_t state,
                          std::vector<RouteCandidate>& out) const = 0;

  /// Called by the simulator after every topology-changing fault event (when
  /// SimConfig::rebuild_routing_on_fault is set): rebuild whatever routing
  /// state the policy derives from the topology. Default: no recovery.
  virtual void on_fault_update(const FaultView& view) { (void)view; }

  /// When true the simulator resets every live packet's routing state to
  /// initial_state() after a rebuild — needed when the state references the
  /// previous topology (e.g. the up*/down* down-only bit of an orientation
  /// that no longer exists).
  virtual bool reset_state_on_fault() const { return false; }

  /// Human-readable name of a routing-state value, or nullptr when the state
  /// has no phase semantics. The simulator uses it to label per-phase hop
  /// counters (dsn.sim.hops.<phase>) for the paper's PRE-WORK/MAIN/FINISH
  /// accounting: a hop counts toward the state it leaves the packet in.
  virtual const char* phase_name(std::uint8_t state) const {
    (void)state;
    return nullptr;
  }
};

/// The table state of the two up*/down* policies below: the pristine
/// SimRouting (distance and up*/down* tables), the VC count, and the
/// degraded SimRouting a fault event rebuilds over the live subgraph.
class UpDownTablePolicy : public SimRoutingPolicy {
 public:
  /// Full recovery: re-derives SimRouting over the alive subgraph (root =
  /// lowest alive switch); drops back to the pristine tables once healed.
  void on_fault_update(const FaultView& view) override;
  /// The down-only bit refers to the orientation the packet was routed
  /// under; stale bits must not constrain routes on the new orientation.
  bool reset_state_on_fault() const override { return true; }

 protected:
  /// `rebuild_pool` overrides the global thread pool for degraded-table
  /// rebuilds on fault events (tables are identical for any worker count).
  UpDownTablePolicy(const SimRouting& routing, std::uint32_t vcs, ThreadPool* rebuild_pool)
      : vcs_(vcs), routing_(&routing), rebuild_pool_(rebuild_pool) {}

  const SimRouting& table() const { return degraded_ ? *degraded_ : *routing_; }

  std::uint32_t vcs_;

 private:
  const SimRouting* routing_;
  ThreadPool* rebuild_pool_;
  std::unique_ptr<SimRouting> degraded_;
};

class AdaptiveUpDownPolicy final : public UpDownTablePolicy {
 public:
  /// vcs must be >= 2 (one escape VC + at least one adaptive VC).
  AdaptiveUpDownPolicy(const SimRouting& routing, std::uint32_t vcs,
                       ThreadPool* rebuild_pool = nullptr);

  const char* name() const override { return "adaptive-updown"; }
  void candidates(NodeId u, NodeId t, std::uint8_t state,
                  std::vector<RouteCandidate>& out) const override;
};

/// Deterministic up*/down*-only routing on all VCs (the routing the paper
/// compares its custom routing against in the traffic-balance remark).
class UpDownOnlyPolicy final : public UpDownTablePolicy {
 public:
  UpDownOnlyPolicy(const SimRouting& routing, std::uint32_t vcs,
                   ThreadPool* rebuild_pool = nullptr);

  const char* name() const override { return "updown-only"; }
  void candidates(NodeId u, NodeId t, std::uint8_t state,
                  std::vector<RouteCandidate>& out) const override;
};

/// The DSN custom routing (DSN-V) with the packet's DsnWalkState as its
/// routing state; needs a multiple of 4 VCs.
class DsnCustomPolicy final : public SimRoutingPolicy {
 public:
  /// vcs must be a multiple of 4; with vcs = 4k each channel class owns k
  /// virtual channels (class c uses VCs [c*k, (c+1)*k)), preserving the
  /// Theorem 3 class separation while relieving per-class HOL blocking.
  explicit DsnCustomPolicy(const Dsn& dsn, std::uint32_t vcs = 4);

  const char* name() const override { return "dsn-custom"; }
  std::uint8_t initial_state() const override {
    return static_cast<std::uint8_t>(DsnWalkState::kSource);
  }
  void candidates(NodeId u, NodeId t, std::uint8_t state,
                  std::vector<RouteCandidate>& out) const override;
  /// Degraded mode: records the alive masks; candidates() then dodges dead
  /// hops: a blocked PRE-WORK descent skips ahead to MAIN, a dead shortcut
  /// is walked around on succ links in MAIN, and a dead ring hop turns the
  /// walk into a FINISH detour the other way round the ring, held by the
  /// walk state (kFinishSucc / kFinishPred) until the destination. The state
  /// never moves backward, but degraded mode has no deadlock proof, and a
  /// multi-fault pattern can strand a destination — the simulator's TTL
  /// guard then accounts those packets as dropped.
  void on_fault_update(const FaultView& view) override;
  /// The phase a walk state names; an overshooting MAIN shortcut ends MAIN,
  /// so dsn.sim.hops.finish counts it.
  const char* phase_name(std::uint8_t state) const override;

  std::uint32_t vcs_per_class() const { return vcs_per_class_; }

 private:
  /// Any alive physical link u -> v (degraded mode only).
  bool hop_alive(NodeId u, NodeId v) const;

  DsnRouter router_;
  std::uint32_t vcs_per_class_;
  // Live fault state (empty until the first on_fault_update).
  const Topology* fault_topo_ = nullptr;
  std::vector<std::uint8_t> link_alive_;
  std::vector<std::uint8_t> switch_alive_;
  bool degraded_ = false;
};

/// Deliberately deadlock-PRONE policy for negative-control experiments: on a
/// ring topology, always route clockwise on a single VC. Its channel
/// dependency graph is the full directed ring cycle, so under load the
/// network wedges — which the simulator's watchdog must detect. Never use
/// outside tests/demos.
class RingClockwisePolicy final : public SimRoutingPolicy {
 public:
  explicit RingClockwisePolicy(const Topology& ring);

  const char* name() const override { return "ring-clockwise-unsafe"; }
  void candidates(NodeId u, NodeId t, std::uint8_t state,
                  std::vector<RouteCandidate>& out) const override;

 private:
  const Topology* topo_;
};

/// Deterministic dimension-order routing on a torus with dateline virtual
/// channels: traffic in dimension d uses VCs {2d, 2d+1}, starting on the even
/// VC and switching to the odd one after crossing the wraparound link of that
/// dimension — the classic deadlock-free DOR scheme. Needs vcs >= 2 * rank.
/// Used by the torus-routing ablation (the paper runs the topology-agnostic
/// adaptive scheme on the torus; this shows what a native router changes).
class TorusDorPolicy final : public SimRoutingPolicy {
 public:
  TorusDorPolicy(const Topology& torus, std::uint32_t vcs);

  const char* name() const override { return "torus-dor"; }
  void candidates(NodeId u, NodeId t, std::uint8_t state,
                  std::vector<RouteCandidate>& out) const override;

 private:
  const Topology* topo_;
};

}  // namespace dsn
