// Cycle-accurate flit-level network simulator with virtual cut-through
// switching, per-VC input buffering and credit-based flow control.
//
// Model summary (one cycle = one flit serialization time on a link):
//  - Input-queued switches; each input port has `vcs` FIFO buffers of
//    `buffer_flits` flits guarded by credits held at the upstream sender.
//  - A head flit becomes routable router_delay after arriving (covering
//    routing, VC allocation, switch allocation and crossbar setup, ~100 ns).
//  - VC allocation implements virtual cut-through: an output VC is granted
//    only when it is unowned AND the downstream buffer has room for the
//    entire packet, so a blocked packet is always fully absorbed.
//  - Switch allocation moves at most one flit per input port and one flit
//    per output port per cycle (round-robin arbiters with rotating offsets).
//  - Links carry one flit per cycle with link_delay latency; credits return
//    with the same latency, but never in the cycle that freed them (a
//    zero-delay link returns its credit the next cycle).
//  - Hosts inject via dedicated injection ports (NIC holds packet-granular
//    source queues, open-loop Bernoulli generation) and eject via dedicated
//    ejection ports with sink bandwidth of one flit per cycle.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/common/ring.hpp"
#include "dsn/obs/metrics.hpp"
#include "dsn/sim/config.hpp"
#include "dsn/sim/fault.hpp"
#include "dsn/sim/packet.hpp"
#include "dsn/sim/policy.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/sim/traffic.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

/// Outcome of one simulation run at a fixed offered load.
struct SimResult {
  double offered_gbps_per_host = 0.0;
  double accepted_gbps_per_host = 0.0;  ///< ejected flits during measurement
  double avg_latency_ns = 0.0;          ///< generation -> tail delivered, measured packets
  double p50_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double avg_hops = 0.0;                ///< switch-to-switch hops, measured packets
  std::uint64_t packets_measured = 0;   ///< generated inside the window
  std::uint64_t packets_delivered = 0;  ///< of the measured ones
  bool drained = false;    ///< all measured packets delivered before the drain cap
  bool deadlock = false;   ///< watchdog saw in-flight flits make no progress
  std::uint64_t cycles_run = 0;

  // Degraded-mode observability (live fault injection, see dsn/sim/fault.hpp;
  // totals cover all phases, not just the measurement window).
  std::uint64_t packets_generated_total = 0;
  std::uint64_t packets_delivered_total = 0;
  std::uint64_t packets_dropped = 0;      ///< fault purges + TTL expiries
  std::uint64_t packets_dropped_ttl = 0;  ///< of those, TTL expiries
  std::uint64_t packets_retried = 0;      ///< requeue events (one per retry)
  std::uint64_t flits_dropped = 0;        ///< flits purged from buffers/wires
  /// Live packets at exit, recounted independently from the packet pool.
  std::uint64_t packets_in_flight_at_end = 0;
  /// Packet conservation: generated == delivered + dropped + in-flight, with
  /// the in-flight count recounted from the pool (no unaccounted flits).
  bool conservation_ok = true;
  std::uint32_t routing_rebuilds = 0;
  std::vector<FaultRecord> fault_log;  ///< one record per applied fault event
  std::vector<EpochStats> epochs;      ///< degradation curve (epoch_cycles > 0)
};

/// Full SimResult as ordered JSON (byte-identical for identical results —
/// the golden determinism tests compare these dumps across thread counts).
Json to_json(const SimResult& result);

/// Degradation-curve view: totals + fault log + per-epoch counts.
Json degradation_curve_json(const SimResult& result);

class ActiveCore;

class Simulator {
 public:
  /// The policy is held non-const: fault recovery calls its on_fault_update
  /// hook to rebuild routing tables when the topology changes mid-run.
  Simulator(const Topology& topo, SimRoutingPolicy& policy,
            const TrafficPattern& traffic, const SimConfig& config);

  /// Run the configured warmup + measurement + drain phases. Dispatches to
  /// the active-set core (default) or the legacy full-scan core
  /// (SimConfig::legacy_core); both produce byte-identical SimResult.
  SimResult run();

  /// Replace the open-loop Bernoulli generators with an explicit injection
  /// schedule (entries must be sorted by cycle; packets whose cycle falls in
  /// the measurement window are measured). Call before run().
  void set_injection_trace(std::vector<TraceEntry> trace);

  /// Arm a live fault schedule (validated against the topology). Events are
  /// applied at the start of their cycle: flits on a dead link or inside a
  /// halted switch are purged with explicit drop/requeue accounting, credits
  /// are recomputed exactly from the flow-control invariant, and the policy
  /// rebuilds its routing state. Call before run().
  void set_fault_schedule(FaultSchedule schedule);

  /// Flits carried per directed link half during the measurement window
  /// (index = 2*link + dir with dir 0: u->v, 1: v->u); for the
  /// traffic-balance analysis of the custom routing.
  const std::vector<std::uint64_t>& link_flit_counts() const { return link_flits_; }

  /// Per-packet traces of delivered measured packets (empty unless
  /// SimConfig::record_packet_traces is set).
  const std::vector<PacketTrace>& packet_traces() const { return traces_; }

  std::uint32_t num_hosts() const { return num_hosts_; }

 private:
  /// A waiting head's routable cycle lives on its packet (routable_at).
  struct InputVc {
    RingQueue<Flit> buffer;
    std::uint32_t out_port = 0;  ///< allocated output (active only)
    std::uint32_t out_vc = 0;
    /// Packet owning the current allocation; kInvalidPacketSlot while idle.
    /// The buffer can momentarily hold zero of its flits mid-stream, so the
    /// fault purge cannot infer the owner from the buffer front.
    PacketSlot cur_packet = kInvalidPacketSlot;

    bool active() const { return cur_packet != kInvalidPacketSlot; }
  };

  struct OutputVc {
    bool owned = false;  ///< allocated to an input VC's packet
    std::uint32_t credits = 0;
  };

  struct Arrival {
    std::uint64_t cycle;
    Flit flit;
    std::uint32_t vc;
  };

  struct SwitchState {
    std::uint32_t num_net_ports = 0;   ///< network in/out ports (adjacency order)
    std::uint32_t num_ports = 0;       ///< net + host ports
    std::vector<InputVc> in;           ///< [port * vcs + vc]
    std::vector<OutputVc> out;         ///< [port * vcs + vc]
    std::vector<RingQueue<Arrival>> wire;  ///< per input port
    /// Pending credit returns per (out port * vcs + vc): the cycle from which
    /// each returned credit (one flit slot) counts, in push order.
    std::vector<RingQueue<std::uint64_t>> credits;
    std::vector<std::uint32_t> sa_rr;  ///< round-robin pointer per output port
  };

  /// Routable cycle of the head flit at the front of `ivc`'s buffer.
  std::uint64_t front_routable_at(const InputVc& ivc) const {
    return packets_[ivc.buffer.front().packet].routable_at;
  }
  /// VC allocation's precondition (both cores): `ivc` is idle and the head
  /// flit at its buffer front may be routed at `now`.
  bool head_routable(const InputVc& ivc, std::uint64_t now) const {
    return !ivc.active() && !ivc.buffer.empty() && ivc.buffer.front().head &&
           front_routable_at(ivc) <= now;
  }

  /// Add output VC `idx`'s credit returns due by `now` to its count. VC and
  /// switch allocation call this right before they read a credit count, so
  /// the active core needs no per-return event; each queue's due cycles are
  /// nondecreasing (one writer, stamped at push time + a fixed delay).
  static void apply_due_credits(SwitchState& sw, std::uint32_t idx,
                                std::uint64_t now) {
    RingQueue<std::uint64_t>& q = sw.credits[idx];
    while (!q.empty() && q.front() <= now) {
      ++sw.out[idx].credits;
      q.pop_front();
    }
  }

  struct NicState {
    RingQueue<PacketSlot> source_queue;
    /// Fault-damaged packets awaiting re-injection (Packet::retry_at holds
    /// each packet's bounded-exponential-backoff deadline).
    RingQueue<PacketSlot> retry_queue;
    /// Packet being streamed into the injection port; kInvalidPacketSlot
    /// while the NIC is idle.
    PacketSlot streaming = kInvalidPacketSlot;
    std::uint32_t flits_sent = 0;
    std::uint32_t stream_vc = 0;
    std::vector<std::uint32_t> credits;  ///< per VC at the injection port
    Rng rng{0};
  };

  /// Per-switch scratch for the switch-allocation kernel, preallocated to
  /// the widest switch once (no per-cycle container writes in the hot loop):
  /// input_used entries are set during one switch's arbitration and reset
  /// via the used_inputs undo list before the kernel returns. The legacy
  /// core owns one instance; the active core owns one per shard.
  struct SaScratch {
    std::vector<std::uint8_t> input_used;
    std::vector<std::uint32_t> used_inputs;
    /// sa_switch_active ordering buffer: (out_port, RR-cyclic key, VC index)
    /// packed into one word per active VC so a single sort recovers the
    /// legacy scan order over the active subset.
    std::vector<std::uint64_t> rr_candidates;
  };

  PacketSlot alloc_packet();
  void free_packet(PacketSlot slot);
  /// Allocate a packet src -> dst generated at `now` and queue it at the
  /// source NIC — the single injection path both cores share, so packet ids
  /// and pool slots are assigned in the same order everywhere.
  void enqueue_packet(HostId src, HostId dst, std::uint64_t now);
  void generate_traffic(std::uint64_t now);
  void nic_stream(std::uint64_t now);
  /// One NIC's injection step for one cycle (shared by both cores). Returns
  /// true when the NIC still has actionable or pending work; false when it
  /// is idle. When idle purely because every queued retry is still backing
  /// off, *wake_at (if non-null) receives the earliest retry_at so the
  /// active core can re-arm a wakeup instead of polling.
  bool nic_step(HostId h, std::uint64_t now, std::uint64_t* wake_at);
  void deliver_wire_flits(std::uint64_t now);
  void apply_credit_returns(std::uint64_t now);
  void allocate_vcs(std::uint64_t now);
  void switch_allocation(std::uint64_t now);
  /// One switch's allocation (round-robin arbitration + flit movement) for
  /// one cycle. The Sink receives every side effect whose destination
  /// differs between cores: cross-switch queue pushes (mailboxed when the
  /// target lives on another shard), delivery/drop accounting (per-shard
  /// deltas merged in shard order), and active-set bookkeeping hooks.
  /// Defined in dsn/sim/switch_kernel.hpp; both cores instantiate it.
  template <class Sink>
  void sa_switch(NodeId u, std::uint64_t now, bool in_window, SaScratch& scratch,
                 Sink& sink);
  /// Same arbitration restricted to the caller's list of active input VCs
  /// (allocated, with a nonempty buffer) — O(active) per switch instead
  /// of O(ports x vcs). Grant decisions and credit-stall counts are
  /// byte-identical to sa_switch; the active core maintains the lists.
  template <class Sink>
  void sa_switch_active(NodeId u, std::uint64_t now, bool in_window,
                        const std::vector<std::uint32_t>& active,
                        SaScratch& scratch, Sink& sink);
  /// Shared grant body of both front-ends: moves the winning flit, consumes
  /// and returns credits, ejects tails, and fires the Sink hooks.
  template <class Sink>
  void sa_apply_grant(NodeId u, std::uint32_t op, std::uint32_t granted,
                      std::uint64_t now, bool in_window, SaScratch& scratch,
                      Sink& sink);
  bool try_allocate(NodeId sw, std::uint32_t in_port, std::uint32_t vc,
                    std::uint64_t now, std::vector<RouteCandidate>& scratch);
  /// TTL-expire queued packets of NICs in [begin, end), appending expired
  /// slots to `out` (erased from the queues; caller purges). Both cores call
  /// this only on cycles divisible by kTtlSweepStride; head-of-buffer TTL
  /// checks stay per-cycle, so a queued packet's drop is at most stride-1
  /// cycles late.
  static constexpr std::uint64_t kTtlSweepStride = 64;
  void sweep_nic_ttl(std::uint64_t now, HostId begin, HostId end,
                     std::vector<PacketSlot>& out);
  SimResult run_legacy();
  SimResult run_active();
  /// Assemble the SimResult from the accumulated counters (shared epilogue:
  /// latency percentiles, conservation recount, fault log, epochs).
  SimResult finalize_result(std::uint64_t now, bool deadlock);

  // --- fault machinery (see dsn/sim/fault.hpp) ----------------------------
  /// Returns true when at least one event changed topology state (the active
  /// core rebuilds its work lists from scratch after any such change).
  bool apply_fault_events(std::uint64_t now);
  /// Packets with flits in flight on link l or mid-stream across it.
  void collect_link_packets(LinkId l, std::vector<PacketSlot>& out) const;
  /// Packets with any flit inside switch s, streaming into it, or mid-stream
  /// on any of its links (everything a halted switch loses).
  void collect_switch_packets(NodeId s, std::vector<PacketSlot>& out) const;
  /// Remove every flit of the given packets from wires, buffers and NIC
  /// streams, release their allocations, give the unallocated heads left in
  /// the VCs it touched a fresh router delay, and requeue (bounded retries)
  /// or drop each packet with accounting. Sorts and dedupes `slots` in
  /// place. Callers must recompute_credits() after.
  void purge_packets(std::vector<PacketSlot>& slots, std::uint64_t now,
                     bool allow_requeue, bool ttl, FaultRecord* record);
  /// Reset every credit counter exactly from the flow-control invariant:
  /// free space = buffer_flits - (downstream occupancy + wire in-flight).
  /// Pending credit returns are flushed (they are part of the recount).
  void recompute_credits();
  /// Reset live packets' routing state to the policy's initial state (after
  /// a rebuild whose state encoding refers to the previous topology).
  void reset_route_states();
  EpochStats& epoch_at(std::uint64_t now);

  const Topology* topo_;
  SimRoutingPolicy* policy_;
  const TrafficPattern* traffic_;
  SimConfig config_;

  std::uint32_t num_switches_ = 0;
  std::uint32_t num_hosts_ = 0;
  std::uint64_t router_delay_ = 0;
  std::uint64_t link_delay_ = 0;

  std::vector<SwitchState> switches_;
  std::vector<NicState> nics_;
  /// For (switch, net port) the (switch, port) at the other end of its link:
  /// the downstream input port of a wire push and the upstream credit target.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> peer_port_;
  /// Directed link index for (switch, net out_port), for link_flits_.
  std::vector<std::vector<std::uint32_t>> out_link_index_;

  std::vector<Packet> packets_;
  std::vector<PacketSlot> free_slots_;

  std::vector<std::uint64_t> link_flits_;
  std::vector<PacketTrace> traces_;
  std::vector<std::uint32_t> measured_latencies_;  ///< cycles
  std::uint64_t measured_generated_ = 0;
  std::uint64_t measured_delivered_ = 0;
  std::uint64_t measured_hops_ = 0;
  std::uint64_t ejected_flits_in_window_ = 0;
  std::uint64_t in_flight_packets_ = 0;
  std::uint64_t last_progress_cycle_ = 0;

  std::vector<RouteCandidate> scratch_candidates_;  ///< legacy-core route scratch
  SaScratch sa_scratch_;          ///< legacy-core switch-allocation scratch
  std::uint32_t max_ports_ = 0;   ///< widest switch (scratch sizing)

  std::vector<TraceEntry> injection_trace_;
  std::size_t trace_cursor_ = 0;
  bool use_trace_ = false;

  // --- live fault state ---------------------------------------------------
  std::vector<std::uint8_t> link_alive_;    ///< by LinkId
  std::vector<std::uint8_t> switch_alive_;  ///< by NodeId
  /// Port of link l at each endpoint: {(node, adjacency port), ...} — needed
  /// because parallel links (DSN-E Up links) share neighbor node ids.
  std::vector<std::array<std::pair<NodeId, std::uint32_t>, 2>> link_ports_;
  FaultSchedule fault_schedule_;
  std::size_t fault_cursor_ = 0;
  bool faults_armed_ = false;
  std::vector<FaultRecord> fault_log_;
  /// fault_log_ indices of down events awaiting their first post-event
  /// delivery (time-to-reconnect measurement).
  std::vector<std::size_t> pending_reconnect_;
  std::vector<EpochStats> epochs_;
  std::uint64_t generated_total_ = 0;  ///< also the next packet's id
  std::uint64_t delivered_total_ = 0;
  std::uint64_t dropped_total_ = 0;
  std::uint64_t dropped_ttl_ = 0;
  std::uint64_t retried_total_ = 0;
  std::uint64_t flits_dropped_ = 0;
  std::uint64_t measured_dropped_ = 0;
  std::uint32_t routing_rebuilds_ = 0;
  std::vector<PacketSlot> ttl_expired_;  ///< per-cycle scratch

  /// Per-phase hop counters, indexed by routing state, registered in the
  /// constructor for every state the policy names (dsn.sim.hops.<phase>).
  /// Unnamed states keep invalid ids, which every registry op ignores.
  /// Present in all builds (headers are DSN_OBS-invariant); with DSN_OBS=0
  /// nothing ever registers or touches them.
  std::array<obs::MetricId, 8> hop_phase_metrics_{};

  void emit_trace_sample(std::uint64_t now);

  /// The active-set engine (dsn/sim/active_core.cpp) drives the same state
  /// machine through work lists and sharded epochs; it is an implementation
  /// detail of run_active() with full access to the simulator state.
  friend class ActiveCore;
};

/// Convenience wrapper: run one simulation point.
SimResult run_simulation(const Topology& topo, SimRoutingPolicy& policy,
                         const TrafficPattern& traffic, const SimConfig& config);

}  // namespace dsn
