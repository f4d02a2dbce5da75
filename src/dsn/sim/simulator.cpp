// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "dsn/obs/obs.hpp"
#include "dsn/sim/sim_metrics.hpp"
#include "dsn/sim/switch_kernel.hpp"

namespace dsn {

#if DSN_OBS
using sim_detail::SimMetrics;
#endif  // DSN_OBS

Simulator::Simulator(const Topology& topo, SimRoutingPolicy& policy,
                     const TrafficPattern& traffic, const SimConfig& config)
    : topo_(&topo), policy_(&policy), traffic_(&traffic), config_(config) {
  config_.validate();
#if DSN_OBS
  if (obs::metrics_on()) {
    for (std::uint32_t s = 0; s < hop_phase_metrics_.size(); ++s) {
      if (const char* phase = policy.phase_name(static_cast<std::uint8_t>(s))) {
        hop_phase_metrics_[s] = obs::MetricsRegistry::global().counter(
            std::string("dsn.sim.hops.") + phase);
      }
    }
  }
#endif
  num_switches_ = topo.num_nodes();
  num_hosts_ = num_switches_ * config_.hosts_per_switch;
  router_delay_ = config_.router_delay_cycles();
  link_delay_ = config_.link_delay_cycles();

  const Graph& g = topo.graph;
  switches_.resize(num_switches_);
  peer_port_.resize(num_switches_);
  out_link_index_.resize(num_switches_);
  link_flits_.assign(g.num_links() * 2, 0);
  link_alive_.assign(g.num_links(), 1);
  switch_alive_.assign(num_switches_, 1);
  link_ports_.resize(g.num_links());

  for (NodeId u = 0; u < num_switches_; ++u) {
    SwitchState& sw = switches_[u];
    sw.num_net_ports = static_cast<std::uint32_t>(g.degree(u));
    sw.num_ports = sw.num_net_ports + config_.hosts_per_switch;
    sw.in.resize(static_cast<std::size_t>(sw.num_ports) * config_.vcs);
    sw.out.resize(static_cast<std::size_t>(sw.num_ports) * config_.vcs);
    sw.wire.resize(sw.num_ports);
    sw.credits.resize(static_cast<std::size_t>(sw.num_ports) * config_.vcs);
    sw.sa_rr.assign(sw.num_ports, 0);
    // Network output VCs start with a full downstream buffer of credits;
    // ejection output VCs are effectively infinite (host sinks).
    for (std::uint32_t port = 0; port < sw.num_ports; ++port) {
      for (std::uint32_t vc = 0; vc < config_.vcs; ++vc) {
        sw.out[port * config_.vcs + vc].credits =
            port < sw.num_net_ports ? config_.buffer_flits
                                    : std::numeric_limits<std::uint32_t>::max() / 2;
      }
    }
    peer_port_[u].resize(sw.num_net_ports);
    out_link_index_[u].resize(sw.num_net_ports);
  }

  // Build the port map: port i of u and the neighbor's port that carries the
  // same link id are the two ends of one bidirectional link.
  for (NodeId u = 0; u < num_switches_; ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i].to;
      const LinkId link = nbrs[i].link;
      const auto vn = g.neighbors(v);
      std::uint32_t vport = kInvalidNode;
      for (std::uint32_t j = 0; j < vn.size(); ++j) {
        if (vn[j].link == link) {
          vport = j;
          break;
        }
      }
      DSN_ASSERT(vport != kInvalidNode, "link must appear in both adjacencies");
      peer_port_[u][i] = {v, vport};
      const auto [a, b] = g.link_endpoints(link);
      // Direction bit: 0 when this output sends a->b.
      out_link_index_[u][i] = 2 * link + (u == a ? 0u : 1u);
      link_ports_[link][u == a ? 0 : 1] = {u, i};
    }
  }

  nics_.resize(num_hosts_);
  for (HostId h = 0; h < num_hosts_; ++h) {
    nics_[h].credits.assign(config_.vcs, config_.buffer_flits);
    nics_[h].rng = Rng(config_.seed * 0x9e3779b97f4a7c15ULL + h + 1);
  }

  for (const SwitchState& sw : switches_) {
    max_ports_ = std::max(max_ports_, sw.num_ports);
  }
  sa_scratch_.input_used.assign(max_ports_, 0);
  sa_scratch_.used_inputs.reserve(max_ports_);
}

PacketSlot Simulator::alloc_packet() {
  if (!free_slots_.empty()) {
    const PacketSlot s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  packets_.emplace_back();
  return static_cast<PacketSlot>(packets_.size() - 1);
}

void Simulator::free_packet(PacketSlot slot) { free_slots_.push_back(slot); }

void Simulator::set_injection_trace(std::vector<TraceEntry> trace) {
  for (const TraceEntry& e : trace) {
    DSN_REQUIRE(e.src < num_hosts_ && e.dst < num_hosts_,
                "trace host id out of range");
  }
  injection_trace_ = std::move(trace);
  trace_cursor_ = 0;
  use_trace_ = true;
}

void Simulator::set_fault_schedule(FaultSchedule schedule) {
  schedule.validate(*topo_);
  fault_schedule_ = std::move(schedule);
  fault_cursor_ = 0;
  faults_armed_ = true;
}

EpochStats& Simulator::epoch_at(std::uint64_t now) {
  const std::size_t idx = now / config_.epoch_cycles;
  while (epochs_.size() <= idx) {
    EpochStats e;
    e.start_cycle = epochs_.size() * config_.epoch_cycles;
    epochs_.push_back(e);
  }
  return epochs_[idx];
}

void Simulator::enqueue_packet(HostId src, HostId dst, std::uint64_t now) {
  const std::uint64_t window_end = config_.warmup_cycles + config_.measure_cycles;
  const PacketSlot slot = alloc_packet();
  Packet& pkt = packets_[slot];
  pkt = Packet{};
  pkt.id = generated_total_;
  pkt.src_host = src;
  pkt.dst_host = dst;
  pkt.src_switch = src / config_.hosts_per_switch;
  pkt.dst_switch = pkt.dst_host / config_.hosts_per_switch;
  pkt.gen_cycle = now;
  pkt.measured = now >= config_.warmup_cycles && now < window_end;
  pkt.route_state = policy_->initial_state();
  if (pkt.measured) ++measured_generated_;
  ++generated_total_;
  if (config_.epoch_cycles != 0) ++epoch_at(now).injected;
  nics_[src].source_queue.push_back(slot);
  ++in_flight_packets_;
}

void Simulator::generate_traffic(std::uint64_t now) {
  const std::uint64_t window_end = config_.warmup_cycles + config_.measure_cycles;

  if (use_trace_) {
    while (trace_cursor_ < injection_trace_.size() &&
           injection_trace_[trace_cursor_].cycle <= now) {
      const TraceEntry& e = injection_trace_[trace_cursor_++];
      enqueue_packet(e.src, e.dst, now);
    }
    return;
  }

  const double packet_rate = config_.packet_rate_per_cycle();
  if (packet_rate <= 0.0) return;
  // Open-loop generation stops after the measurement window so the drain
  // phase can complete; background load persists through the window itself.
  if (now >= window_end) return;
  for (HostId h = 0; h < num_hosts_; ++h) {
    NicState& nic = nics_[h];
    // Hosts of a halted switch stop generating (their rng simply pauses and
    // resumes deterministically on revival).
    if (faults_armed_ && !switch_alive_[h / config_.hosts_per_switch]) continue;
    // Draw order (bernoulli, then destination) is the active core's too.
    if (nic.rng.bernoulli(packet_rate)) enqueue_packet(h, traffic_->dest(h, nic.rng), now);
  }
}

bool Simulator::nic_step(HostId h, std::uint64_t now, std::uint64_t* wake_at) {
  NicState& nic = nics_[h];
  // A halted switch freezes its hosts' NICs (queues keep their packets for
  // the revival; any active stream was purged by the halt itself).
  if (faults_armed_ && !switch_alive_[h / config_.hosts_per_switch]) return true;
  const std::uint32_t start_credits =
      config_.switching == SwitchingMode::kVirtualCutThrough ? config_.packet_flits
                                                             : 1;
  if (nic.streaming == kInvalidPacketSlot) {
    if (nic.source_queue.empty() && nic.retry_queue.empty()) return false;
    // Virtual cut-through from the NIC too: pick a VC whose injection
    // buffer can hold the whole packet (one flit under wormhole).
    std::uint32_t chosen = config_.vcs;
    for (std::uint32_t k = 0; k < config_.vcs; ++k) {
      const std::uint32_t vc = (static_cast<std::uint32_t>(now) + k) % config_.vcs;
      if (nic.credits[vc] >= start_credits) {
        chosen = vc;
        break;
      }
    }
    if (chosen == config_.vcs) return true;
    // Retries whose backoff expired go first (queue order); otherwise a
    // fresh packet — a still-backing-off retry never blocks new traffic.
    PacketSlot slot = kInvalidPacketSlot;
    for (std::size_t i = 0; i < nic.retry_queue.size(); ++i) {
      if (packets_[nic.retry_queue[i]].retry_at <= now) {
        slot = nic.retry_queue[i];
        nic.retry_queue.erase_at(i);
        break;
      }
    }
    if (slot == kInvalidPacketSlot) {
      if (nic.source_queue.empty()) {
        // Nothing but backing-off retries: idle until the earliest matures.
        if (wake_at != nullptr) {
          std::uint64_t earliest = std::numeric_limits<std::uint64_t>::max();
          for (std::size_t i = 0; i < nic.retry_queue.size(); ++i) {
            earliest = std::min(earliest, packets_[nic.retry_queue[i]].retry_at);
          }
          *wake_at = earliest;
        }
        return false;
      }
      slot = nic.source_queue.front();
      nic.source_queue.pop_front();
    }
    nic.streaming = slot;
    nic.flits_sent = 0;
    nic.stream_vc = chosen;
    packets_[nic.streaming].inject_cycle = now;
  }
  // Send one flit per cycle toward the injection input port; under
  // wormhole the NIC stalls when the injection buffer has no credit.
  if (config_.switching == SwitchingMode::kWormhole &&
      nic.credits[nic.stream_vc] == 0) {
    DSN_OBS_ADD(SimMetrics::get().credit_stalls, 1);
    return true;
  }
  SwitchState& sw = switches_[packets_[nic.streaming].src_switch];
  const std::uint32_t in_port =
      sw.num_net_ports + (h % config_.hosts_per_switch);
  Flit flit;
  flit.packet = nic.streaming;
  flit.head = nic.flits_sent == 0;
  flit.tail = nic.flits_sent + 1 == config_.packet_flits;
  sw.wire[in_port].push_back({now + link_delay_, flit, nic.stream_vc});
  --nic.credits[nic.stream_vc];
  ++nic.flits_sent;
  if (flit.tail) nic.streaming = kInvalidPacketSlot;
  return true;
}

void Simulator::nic_stream(std::uint64_t now) {
  for (HostId h = 0; h < num_hosts_; ++h) nic_step(h, now, nullptr);
}

void Simulator::deliver_wire_flits(std::uint64_t now) {
  for (NodeId u = 0; u < num_switches_; ++u) {
    SwitchState& sw = switches_[u];
    for (std::uint32_t port = 0; port < sw.num_ports; ++port) {
      auto& wire = sw.wire[port];
      while (!wire.empty() && wire.front().cycle <= now) {
        const Arrival a = wire.front();
        wire.pop_front();
        InputVc& ivc = sw.in[port * config_.vcs + a.vc];
        DSN_ASSERT(ivc.buffer.size() < config_.buffer_flits,
                   "credit flow control must prevent buffer overflow");
        if (a.flit.head) packets_[a.flit.packet].routable_at = now + router_delay_;
        ivc.buffer.push_back(a.flit);
      }
    }
  }
}

void Simulator::apply_credit_returns(std::uint64_t now) {
  for (SwitchState& sw : switches_) {
    for (std::uint32_t idx = 0; idx < sw.credits.size(); ++idx) {
      apply_due_credits(sw, idx, now);
    }
  }
}

bool Simulator::try_allocate(NodeId sw_id, std::uint32_t in_port, std::uint32_t vc,
                             std::uint64_t now,
                             std::vector<RouteCandidate>& scratch) {
  SwitchState& sw = switches_[sw_id];
  InputVc& ivc = sw.in[in_port * config_.vcs + vc];
  const Flit& head = ivc.buffer.front();
  Packet& pkt = packets_[head.packet];

  if (pkt.dst_switch == sw_id) {
    // Ejection: any ejection output VC (they have effectively infinite
    // credit); port selected by the destination host's local index.
    const std::uint32_t out_port =
        sw.num_net_ports + (pkt.dst_host % config_.hosts_per_switch);
    for (std::uint32_t ovc = 0; ovc < config_.vcs; ++ovc) {
      OutputVc& o = sw.out[out_port * config_.vcs + ovc];
      if (o.owned) continue;
      o.owned = true;
      ivc.out_port = out_port;
      ivc.out_vc = ovc;
      ivc.cur_packet = head.packet;
      return true;
    }
    return false;
  }

  policy_->candidates(sw_id, pkt.dst_switch, pkt.route_state, scratch);
  const std::size_t count = scratch.size();
  if (count == 0) return false;
  const auto nbrs = topo_->graph.neighbors(sw_id);
  // Escape candidates (flagged by the policy) must be strictly lower priority
  // than adaptive ones: trying escape first would let packets wander up the
  // up*/down* tree while adaptive hops are free (livelock). Rotation for load
  // spreading is applied within the non-escape prefix only; policies place
  // escape candidates at the end.
  std::size_t adaptive_count = 0;
  while (adaptive_count < count && !scratch[adaptive_count].escape) {
    ++adaptive_count;
  }
  const std::size_t rotate =
      adaptive_count > 0 ? (now + sw_id) % adaptive_count : 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t pos = k < adaptive_count
                                ? (k + rotate) % adaptive_count
                                : k;
    const RouteCandidate& cand = scratch[pos];
    // Find the output port toward cand.next: first matching adjacency entry
    // whose link (and downstream switch) is alive — parallel links (DSN-E Up
    // links) mean the liveness check must be per link id, not per neighbor.
    std::uint32_t out_port = kInvalidNode;
    for (std::uint32_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j].to != cand.next) continue;
      if (faults_armed_ &&
          (!link_alive_[nbrs[j].link] || !switch_alive_[cand.next])) {
        continue;
      }
      out_port = j;
      break;
    }
    if (out_port == kInvalidNode) {
      // Without live faults a missing port is a policy bug; with them it is
      // a dead hop the policy has not (yet) routed around — skip it.
      DSN_ASSERT(faults_armed_, "candidate next hop must be a neighbor");
      continue;
    }
    const std::uint32_t ovc = out_port * config_.vcs + cand.vc;
    OutputVc& o = sw.out[ovc];
    if (o.owned) continue;
    // VCT: the downstream buffer must absorb the whole packet. Wormhole:
    // one flit of space suffices (the packet may stall spanning switches).
    const std::uint32_t needed =
        config_.switching == SwitchingMode::kVirtualCutThrough ? config_.packet_flits : 1;
    apply_due_credits(sw, ovc, now);
    if (o.credits < needed) {
      DSN_OBS_ADD(SimMetrics::get().credit_stalls, 1);
      continue;
    }
    o.owned = true;
    ivc.out_port = out_port;
    ivc.out_vc = cand.vc;
    ivc.cur_packet = head.packet;
    // Per-hop packet state update happens at allocation time (head decision):
    // the packet takes the state the granted candidate carries, and the hop
    // counts toward the phase that state names.
#if DSN_OBS
    if (obs::metrics_on()) {
      auto& registry = obs::MetricsRegistry::global();
      registry.add(SimMetrics::get().hops, 1);
      if (cand.state < hop_phase_metrics_.size()) {
        registry.add(hop_phase_metrics_[cand.state], 1);
      }
    }
#endif
    pkt.route_state = cand.state;
    ++pkt.hops;
    return true;
  }
  return false;
}

void Simulator::allocate_vcs(std::uint64_t now) {
  for (NodeId u = 0; u < num_switches_; ++u) {
    SwitchState& sw = switches_[u];
    for (std::uint32_t port = 0; port < sw.num_ports; ++port) {
      for (std::uint32_t vc = 0; vc < config_.vcs; ++vc) {
        const InputVc& ivc = sw.in[port * config_.vcs + vc];
        if (!head_routable(ivc, now)) continue;
        const Flit& front = ivc.buffer.front();
        // TTL guard: packets stuck past their deadline (a destination inside
        // a dead region, or a livelocked detour) are collected and purged
        // after the scan so the drop accounting stays exact.
        if (config_.packet_ttl_cycles != 0 &&
            now - packets_[front.packet].gen_cycle > config_.packet_ttl_cycles) {
          ttl_expired_.push_back(front.packet);
          continue;
        }
        try_allocate(u, port, vc, now, scratch_candidates_);
      }
    }
  }
  // Queued packets age out too: a NIC frozen by a dead source switch (or a
  // retry queue whose destination never heals) would otherwise hold its
  // packets in flight forever and wedge the drain. The sweep is strided:
  // TTL deadlines are coarse, so scanning every NIC queue every cycle is
  // pure overhead at high n (expiries land at the next stride boundary).
  if (config_.packet_ttl_cycles != 0 && now % kTtlSweepStride == 0) {
    sweep_nic_ttl(now, 0, num_hosts_, ttl_expired_);
  }
  if (!ttl_expired_.empty()) {
    purge_packets(ttl_expired_, now, /*allow_requeue=*/false, /*ttl=*/true, nullptr);
    recompute_credits();
    ttl_expired_.clear();
  }
}

void Simulator::sweep_nic_ttl(std::uint64_t now, HostId begin, HostId end,
                              std::vector<PacketSlot>& out) {
  const auto expired = [&](PacketSlot s) {
    if (now - packets_[s].gen_cycle <= config_.packet_ttl_cycles) return false;
    out.push_back(s);
    return true;
  };
  for (HostId h = begin; h < end; ++h) {
    nics_[h].source_queue.erase_if(expired);
    nics_[h].retry_queue.erase_if(expired);
  }
}

void Simulator::switch_allocation(std::uint64_t now) {
  const std::uint64_t window_start = config_.warmup_cycles;
  const std::uint64_t window_end = config_.warmup_cycles + config_.measure_cycles;
  const bool in_window = now >= window_start && now < window_end;

  // The legacy sink writes every side effect straight to the global state —
  // exactly what the pre-kernel monolithic loop did.
  struct DirectSink {
    Simulator* S;
    void push_wire(NodeId down_sw, std::uint32_t dport, const Arrival& a) {
      S->switches_[down_sw].wire[dport].push_back(a);
    }
    void push_credit(NodeId up_sw, std::uint32_t idx, std::uint64_t due) {
      S->switches_[up_sw].credits[idx].push_back(due);
    }
    void add_ejected_flits(std::uint32_t flits) {
      S->ejected_flits_in_window_ += flits;
    }
    void on_measured_delivery(Packet& pkt, std::uint64_t eject) {
      ++S->measured_delivered_;
      S->measured_hops_ += pkt.hops;
      DSN_OBS_OBSERVE(SimMetrics::get().latency_cycles, eject - pkt.gen_cycle);
      S->measured_latencies_.push_back(
          static_cast<std::uint32_t>(eject - pkt.gen_cycle));
      if (S->config_.record_packet_traces &&
          S->traces_.size() < S->config_.trace_limit) {
        S->traces_.push_back({pkt.id, pkt.src_host, pkt.dst_host, pkt.gen_cycle,
                              pkt.inject_cycle, eject, pkt.hops, pkt.retries});
      }
    }
    void on_delivery(std::uint64_t now_cycle, std::uint64_t eject) {
      ++S->delivered_total_;
      if (S->config_.epoch_cycles != 0) ++S->epoch_at(now_cycle).delivered;
      // Any delivery ends the reconnection window of pending down events.
      for (const std::size_t idx : S->pending_reconnect_) {
        S->fault_log_[idx].reconnected = true;
        S->fault_log_[idx].reconnect_cycles = eject - S->fault_log_[idx].event.cycle;
      }
      S->pending_reconnect_.clear();
    }
    void release_packet(PacketSlot slot) {
      --S->in_flight_packets_;
      S->free_packet(slot);
    }
    void after_grant(NodeId, std::uint32_t, bool) {}
    void on_progress(std::uint64_t now_cycle) {
      S->last_progress_cycle_ = now_cycle;
    }
  } sink{this};

  for (NodeId u = 0; u < num_switches_; ++u) {
    sa_switch(u, now, in_window, sa_scratch_, sink);
  }
}

void Simulator::collect_link_packets(LinkId l, std::vector<PacketSlot>& out) const {
  for (const auto& [node, port] : link_ports_[l]) {
    const SwitchState& sw = switches_[node];
    // Flits in flight on the wire into this endpoint's input port.
    for (const Arrival& a : sw.wire[port]) out.push_back(a.flit.packet);
    // Packets mid-stream across the link: an allocation at this endpoint
    // whose output port is the link's port streams toward the other side.
    for (const InputVc& ivc : sw.in) {
      if (ivc.active() && ivc.out_port == port) out.push_back(ivc.cur_packet);
    }
  }
}

void Simulator::collect_switch_packets(NodeId s, std::vector<PacketSlot>& out) const {
  const SwitchState& sw = switches_[s];
  // Everything buffered inside the halted switch is lost.
  for (const InputVc& ivc : sw.in) {
    for (const Flit& f : ivc.buffer) out.push_back(f.packet);
    if (ivc.active()) out.push_back(ivc.cur_packet);
  }
  for (const auto& wire : sw.wire) {
    for (const Arrival& a : wire) out.push_back(a.flit.packet);
  }
  // Streams crossing any incident link (either direction) are cut too.
  for (const AdjHalf& h : topo_->graph.neighbors(s)) collect_link_packets(h.link, out);
  // NIC streams of the halted switch's hosts have nowhere to land.
  for (std::uint32_t k = 0; k < config_.hosts_per_switch; ++k) {
    const NicState& nic = nics_[s * config_.hosts_per_switch + k];
    if (nic.streaming != kInvalidPacketSlot) out.push_back(nic.streaming);
  }
}

void Simulator::purge_packets(std::vector<PacketSlot>& slots, std::uint64_t now,
                              bool allow_requeue, bool ttl, FaultRecord* record) {
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  if (slots.empty()) return;
  std::vector<std::uint8_t> dead(packets_.size(), 0);
  for (const PacketSlot s : slots) dead[s] = 1;

  // Abort NIC streams of dead packets (their sent flits are purged below; a
  // requeued packet restarts from flit 0).
  for (NicState& nic : nics_) {
    if (nic.streaming != kInvalidPacketSlot && dead[nic.streaming]) {
      nic.streaming = kInvalidPacketSlot;
    }
  }

  std::uint64_t flits_removed = 0;
  for (SwitchState& sw : switches_) {
    for (auto& wire : sw.wire) {
      flits_removed +=
          wire.erase_if([&](const Arrival& a) { return dead[a.flit.packet] != 0; });
    }
    for (InputVc& ivc : sw.in) {
      bool touched = false;
      if (ivc.active() && dead[ivc.cur_packet]) {
        // Release the allocation the dead stream held.
        sw.out[ivc.out_port * config_.vcs + ivc.out_vc].owned = false;
        ivc.cur_packet = kInvalidPacketSlot;
        touched = true;
      }
      const std::size_t removed =
          ivc.buffer.erase_if([&](const Flit& f) { return dead[f.packet] != 0; });
      if (removed != 0) {
        flits_removed += removed;
        touched = true;
      }
      if (!touched) continue;
      // Every unallocated head left in the buffer becomes routable after a
      // fresh router delay (the post-fault re-route); the active stream's
      // own head, if still buffered, keeps its allocation.
      for (const Flit& f : ivc.buffer) {
        if (f.head && f.packet != ivc.cur_packet) {
          packets_[f.packet].routable_at = now + router_delay_;
        }
      }
    }
  }

  // Account every dead packet: bounded-backoff requeue at its source NIC, or
  // an explicit drop.
  for (const PacketSlot slot : slots) {
    Packet& pkt = packets_[slot];
    if (allow_requeue && pkt.retries < config_.max_retries) {
      ++pkt.retries;
      ++retried_total_;
      if (config_.epoch_cycles != 0) ++epoch_at(now).retried;
      pkt.hops = 0;
      pkt.route_state = policy_->initial_state();
      const std::uint32_t shift = pkt.retries - 1;
      std::uint64_t backoff = kRetryBackoffCapCycles;
      if (shift < 32) {
        backoff = std::min(backoff, config_.retry_backoff_cycles << shift);
      }
      pkt.retry_at = now + backoff;
      nics_[pkt.src_host].retry_queue.push_back(slot);
      if (record != nullptr) ++record->packets_requeued;
    } else {
      ++dropped_total_;
      if (ttl) ++dropped_ttl_;
      if (pkt.measured) ++measured_dropped_;
      if (config_.epoch_cycles != 0) ++epoch_at(now).dropped;
      --in_flight_packets_;
      free_packet(slot);
      if (record != nullptr) ++record->packets_dropped;
    }
  }
  flits_dropped_ += flits_removed;
  if (record != nullptr) record->flits_dropped += flits_removed;
  last_progress_cycle_ = now;  // purging/requeuing is progress, not a wedge
}

void Simulator::recompute_credits() {
  // Exact recount from the flow-control invariant
  //   credits + pending returns + wire in-flight + downstream occupancy
  //     == buffer_flits
  // with the pending returns flushed (they are part of the free space the
  // recount observes directly). Fault events are the only callers, so the
  // cycle after a fault every credit counter is exact; in-flight streams can
  // only ever see their credit view grow.
  for (NodeId u = 0; u < num_switches_; ++u) {
    SwitchState& sw = switches_[u];
    for (std::uint32_t op = 0; op < sw.num_net_ports; ++op) {
      const auto [down_sw, dport] = peer_port_[u][op];
      SwitchState& dn = switches_[down_sw];
      for (std::uint32_t vc = 0; vc < config_.vcs; ++vc) {
        sw.credits[op * config_.vcs + vc].clear();
        std::uint32_t used =
            static_cast<std::uint32_t>(dn.in[dport * config_.vcs + vc].buffer.size());
        for (const Arrival& a : dn.wire[dport]) {
          if (a.vc == vc) ++used;
        }
        DSN_ASSERT(used <= config_.buffer_flits, "occupancy exceeds buffer depth");
        sw.out[op * config_.vcs + vc].credits = config_.buffer_flits - used;
      }
    }
  }
  // NIC credit returns are applied immediately (never queued), so the NIC
  // recount only reflects purged injection-buffer flits.
  for (HostId h = 0; h < num_hosts_; ++h) {
    const NodeId s = h / config_.hosts_per_switch;
    const SwitchState& sw = switches_[s];
    const std::uint32_t ip = sw.num_net_ports + (h % config_.hosts_per_switch);
    for (std::uint32_t vc = 0; vc < config_.vcs; ++vc) {
      std::uint32_t used =
          static_cast<std::uint32_t>(sw.in[ip * config_.vcs + vc].buffer.size());
      for (const Arrival& a : sw.wire[ip]) {
        if (a.vc == vc) ++used;
      }
      DSN_ASSERT(used <= config_.buffer_flits, "occupancy exceeds buffer depth");
      nics_[h].credits[vc] = config_.buffer_flits - used;
    }
  }
}

void Simulator::reset_route_states() {
  std::vector<std::uint8_t> freed(packets_.size(), 0);
  for (const PacketSlot s : free_slots_) freed[s] = 1;
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    if (!freed[i]) packets_[i].route_state = policy_->initial_state();
  }
}

bool Simulator::apply_fault_events(std::uint64_t now) {
  bool any_changed = false;
  const std::span<const FaultEvent> events = fault_schedule_.events();
  while (fault_cursor_ < events.size() && events[fault_cursor_].cycle <= now) {
    const FaultEvent ev = events[fault_cursor_++];
    bool changed = false;
    std::vector<PacketSlot> damaged;
    switch (ev.kind) {
      case FaultKind::kLinkDown:
        if (link_alive_[ev.id]) {
          link_alive_[ev.id] = 0;
          collect_link_packets(ev.id, damaged);
          changed = true;
        }
        break;
      case FaultKind::kLinkUp:
        if (!link_alive_[ev.id]) {
          link_alive_[ev.id] = 1;
          changed = true;
        }
        break;
      case FaultKind::kSwitchDown:
        if (switch_alive_[ev.id]) {
          switch_alive_[ev.id] = 0;
          collect_switch_packets(ev.id, damaged);
          changed = true;
        }
        break;
      case FaultKind::kSwitchUp:
        if (!switch_alive_[ev.id]) {
          switch_alive_[ev.id] = 1;
          changed = true;
        }
        break;
    }
    if (!changed) continue;  // redundant event (already in that state)
    any_changed = true;
    DSN_OBS_ADD(SimMetrics::get().fault_events, 1);
    DSN_OBS_SPAN("sim.fault_recovery");

    FaultRecord record;
    record.event = ev;
    purge_packets(damaged, now, config_.retry_on_fault, /*ttl=*/false, &record);
    recompute_credits();
    if (config_.rebuild_routing_on_fault) {
      DSN_OBS_SPAN("sim.routing_rebuild");
      policy_->on_fault_update({topo_, link_alive_, switch_alive_});
      record.rebuilt_routing = true;
      ++routing_rebuilds_;
      if (policy_->reset_state_on_fault()) reset_route_states();
    }
    if (ev.kind == FaultKind::kLinkDown || ev.kind == FaultKind::kSwitchDown) {
      pending_reconnect_.push_back(fault_log_.size());
    }
    fault_log_.push_back(record);
    last_progress_cycle_ = now;
  }
  return any_changed;
}

/// Sampled counter tracks on the active trace: channel occupancy (owned
/// network output VCs) and packets in flight, every 64 cycles so even long
/// runs stay viewable. A no-op unless a trace writer is active.
void Simulator::emit_trace_sample(std::uint64_t now) {
#if DSN_OBS
  obs::TraceWriter* writer = obs::active_trace();
  if (writer == nullptr || now % 64 != 0) return;
  std::uint64_t occupied = 0;
  for (const SwitchState& sw : switches_) {
    const std::uint32_t net_vcs = sw.num_net_ports * config_.vcs;
    for (std::uint32_t idx = 0; idx < net_vcs; ++idx) {
      if (sw.out[idx].owned) ++occupied;
    }
  }
  writer->counter("sim.occupied_channels", static_cast<double>(occupied));
  writer->counter("sim.in_flight_packets",
                  static_cast<double>(in_flight_packets_));
#else
  (void)now;
#endif
}

SimResult Simulator::run() {
  // Start from the simulator's own fault state (all alive): a policy object
  // reused across runs must not carry a previous run's degraded tables.
  policy_->on_fault_update({topo_, link_alive_, switch_alive_});

  DSN_OBS_SPAN("sim.run");
  if (config_.legacy_core) return run_legacy();
  return run_active();
}

SimResult Simulator::run_legacy() {
  const std::uint64_t window_end = config_.warmup_cycles + config_.measure_cycles;
  const std::uint64_t hard_end = window_end + config_.drain_cycles;
  // Watchdog: if flits are in flight but nothing moved for this long, the
  // network is deadlocked (or a policy is broken) — abort and report.
  const std::uint64_t watchdog = 4 * (router_delay_ + link_delay_) +
                                 4ull * config_.packet_flits + 10'000;

  bool deadlock = false;
  std::uint64_t now = 0;
  last_progress_cycle_ = 0;
  for (; now < hard_end; ++now) {
    if (faults_armed_) apply_fault_events(now);
    generate_traffic(now);
    deliver_wire_flits(now);
    apply_credit_returns(now);
    allocate_vcs(now);
    switch_allocation(now);
    nic_stream(now);
    DSN_OBS_ONLY(emit_trace_sample(now);)
    DSN_OBS_GAUGE_SET(SimMetrics::get().in_flight,
                      static_cast<std::int64_t>(in_flight_packets_));

    if (now >= window_end &&
        measured_delivered_ + measured_dropped_ == measured_generated_) {
      ++now;
      break;  // every measured packet accounted (delivered or dropped) — done
    }
    if (in_flight_packets_ > 0 && now - last_progress_cycle_ > watchdog) {
      deadlock = true;
      break;
    }
  }

  return finalize_result(now, deadlock);
}

SimResult Simulator::finalize_result(std::uint64_t now, bool deadlock) {
  SimResult result;
  result.offered_gbps_per_host = config_.offered_gbps_per_host;
  result.deadlock = deadlock;
  result.cycles_run = now;
  result.packets_measured = measured_generated_;
  result.packets_delivered = measured_delivered_;
  result.drained =
      measured_delivered_ + measured_dropped_ == measured_generated_ && !result.deadlock;
  const double cyc_ns = config_.cycle_ns();
  if (!measured_latencies_.empty()) {
    std::vector<std::uint32_t> sorted = measured_latencies_;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (const auto v : sorted) sum += v;
    result.avg_latency_ns = sum / static_cast<double>(sorted.size()) * cyc_ns;
    result.p50_latency_ns = sorted[sorted.size() / 2] * cyc_ns;
    result.p99_latency_ns = sorted[sorted.size() * 99 / 100] * cyc_ns;
    // hops counts switch-to-switch link traversals (ejection excluded).
    result.avg_hops = static_cast<double>(measured_hops_) /
                      static_cast<double>(measured_delivered_);
  }
  const double accepted_rate =
      static_cast<double>(ejected_flits_in_window_) /
      (static_cast<double>(config_.measure_cycles) * num_hosts_);
  result.accepted_gbps_per_host = config_.flits_per_cycle_to_gbps(accepted_rate);

  // Fault bookkeeping + the conservation check the fuzz harness asserts on:
  // every injected packet must be delivered, explicitly dropped, or still
  // allocated in a packet slot at the end.
  result.packets_generated_total = generated_total_;
  result.packets_delivered_total = delivered_total_;
  result.packets_dropped = dropped_total_;
  result.packets_dropped_ttl = dropped_ttl_;
  result.packets_retried = retried_total_;
  result.flits_dropped = flits_dropped_;
  const std::uint64_t live =
      static_cast<std::uint64_t>(packets_.size()) - free_slots_.size();
  result.packets_in_flight_at_end = live;
  result.conservation_ok =
      live == in_flight_packets_ &&
      generated_total_ == delivered_total_ + dropped_total_ + live;
  result.routing_rebuilds = routing_rebuilds_;
  result.fault_log = fault_log_;
  result.epochs = epochs_;
  return result;
}

SimResult run_simulation(const Topology& topo, SimRoutingPolicy& policy,
                         const TrafficPattern& traffic, const SimConfig& config) {
  Simulator sim(topo, policy, traffic, config);
  return sim.run();
}

}  // namespace dsn
