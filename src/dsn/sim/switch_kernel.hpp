// dsn-slint: deterministic — this kernel's grant order is replayed by the
// byte-identical equivalence suite; arbitration must depend only on state.
//
// The switch-allocation kernels shared by both simulator cores. One call
// arbitrates one switch for one cycle: round-robin over input VCs per output
// port, at most one flit per input port and per output port, credit-based
// flow control. Every side effect whose destination differs between the
// legacy core (direct global writes) and the active-set core (per-shard
// deltas + cross-shard mailboxes) is routed through the Sink template
// parameter, and the grant body — the flit movement both cores must replay
// identically — exists exactly once (sa_apply_grant).
//
// Two arbitration front-ends feed it:
//   - sa_switch: the legacy full scan, O(ports x total_ivcs) per switch.
//     Every output port scans every input VC from its round-robin pointer.
//   - sa_switch_active: the active-set walk, O(active log active) per
//     switch. It visits only the input VCs the caller lists as active
//     (allocated, with a nonempty buffer) in exactly the cyclic
//     round-robin order the full scan would have encountered them, so the
//     grant decisions AND the credit-stall counter increments are
//     byte-identical: VCs the full scan skips without observable effect
//     (inactive, other output, empty buffer) are precisely the ones missing
//     from the active list. It applies an output VC's due credit returns
//     when it reads the VC's credits, so the active core keeps no credit
//     events; the legacy core applies every due return at the start of the
//     cycle, which leaves the same counts.
//
// Sink contract (all calls happen in grant order within the switch):
//   push_wire(down_sw, dport, Arrival)    flit onto a downstream wire
//   push_credit(up_sw, credit_idx, due)   one credit to an upstream switch,
//                                         usable from cycle `due`
//   add_ejected_flits(n)                  in-measurement-window ejections
//   on_measured_delivery(pkt, eject)      measured-packet stats + traces
//   on_delivery(now, eject)               delivered totals / epoch / reconnect
//   release_packet(slot)                  in-flight decrement + pool free
//   after_grant(u, ivc_idx, went_idle)    active-set bookkeeping (post-update)
//   on_progress(now)                      watchdog progress
#pragma once

#include <algorithm>

#include "dsn/common/error.hpp"
#include "dsn/sim/sim_metrics.hpp"
#include "dsn/sim/simulator.hpp"

namespace dsn {

/// Move the granted flit: advance the round-robin pointer, consume/return
/// credits, forward to the wire or eject at the host, and retire tails.
template <class Sink>
void Simulator::sa_apply_grant(NodeId u, std::uint32_t op, std::uint32_t granted,
                               std::uint64_t now, bool in_window,
                               SaScratch& scratch, Sink& sink) {
  SwitchState& sw = switches_[u];
  const std::uint32_t total_ivcs = sw.num_ports * config_.vcs;
  sw.sa_rr[op] = (granted + 1) % total_ivcs;

  InputVc& ivc = sw.in[granted];
  const std::uint32_t in_port = granted / config_.vcs;
  const std::uint32_t in_vc = granted % config_.vcs;
  scratch.input_used[in_port] = 1;
  scratch.used_inputs.push_back(in_port);

  const Flit flit = ivc.buffer.front();
  ivc.buffer.pop_front();
  OutputVc& o = sw.out[op * config_.vcs + ivc.out_vc];

  if (op < sw.num_net_ports) {
    // Network traversal: consume a credit, put the flit on the wire
    // toward the downstream input port (precomputed in peer_port_).
    --o.credits;
    const auto [down_sw, dport] = peer_port_[u][op];
    sink.push_wire(down_sw, dport, Arrival{now + link_delay_, flit, ivc.out_vc});
    if (in_window) ++link_flits_[out_link_index_[u][op]];
  } else {
    // Ejection: flit sinks at the host.
    Packet& pkt = packets_[flit.packet];
    if (flit.tail) {
      const std::uint64_t eject = now + link_delay_;
      if (in_window) sink.add_ejected_flits(config_.packet_flits);
      if (pkt.measured) sink.on_measured_delivery(pkt, eject);
      sink.on_delivery(now, eject);
      sink.release_packet(flit.packet);
    }
  }

  // Return a credit for the freed input-buffer slot to the upstream
  // sender (switch output VC or host NIC). It counts from cycle
  // now + max(link_delay, 1), the cycle whose start-of-cycle pass applies
  // it in the legacy core. The active core applies due returns when it
  // reads a credit count, so without the floor a zero-delay link would hand
  // the credit to a switch allocated later in this same cycle.
  if (in_port < sw.num_net_ports) {
    const auto [up_sw, up_port] = peer_port_[u][in_port];
    sink.push_credit(up_sw, up_port * config_.vcs + in_vc,
                     now + std::max<std::uint64_t>(link_delay_, 1));
  } else {
    const HostId host =
        u * config_.hosts_per_switch + (in_port - sw.num_net_ports);
    // NIC credits return after the link delay as well; modeled by a
    // simple immediate increment shifted via the credit queue of the NIC
    // is unnecessary detail — apply directly (the NIC already waited a
    // full buffer of credits before starting a packet).
    ++nics_[host].credits[in_vc];
  }

  bool went_idle = false;
  if (flit.tail) {
    o.owned = false;
    ivc.cur_packet = kInvalidPacketSlot;
    went_idle = true;
  }
  sink.after_grant(u, granted, went_idle);
  sink.on_progress(now);
}

template <class Sink>
void Simulator::sa_switch(NodeId u, std::uint64_t now, bool in_window,
                          SaScratch& scratch, Sink& sink) {
  SwitchState& sw = switches_[u];
  // One flit per input port per cycle; entries are reset via the undo list
  // below, so the preallocated scratch sees no per-cycle container writes.
  std::vector<std::uint8_t>& input_used = scratch.input_used;

  for (std::uint32_t op = 0; op < sw.num_ports; ++op) {
    // Round-robin over input VCs that hold this output.
    const std::uint32_t total_ivcs = sw.num_ports * config_.vcs;
    const std::uint32_t rr = sw.sa_rr[op];
    std::uint32_t granted = total_ivcs;
    for (std::uint32_t k = 0; k < total_ivcs; ++k) {
      const std::uint32_t idx = (rr + k) % total_ivcs;
      const InputVc& ivc = sw.in[idx];
      if (!ivc.active() || ivc.out_port != op) continue;
      const std::uint32_t in_port = idx / config_.vcs;
      if (input_used[in_port]) continue;
      if (ivc.buffer.empty()) continue;
      const OutputVc& o = sw.out[op * config_.vcs + ivc.out_vc];
      if (o.credits == 0) {
        DSN_OBS_ADD(sim_detail::SimMetrics::get().credit_stalls, 1);
        continue;
      }
      granted = idx;
      break;
    }
    if (granted == total_ivcs) continue;
    sa_apply_grant(u, op, granted, now, in_window, scratch, sink);
  }

  for (const std::uint32_t in_port : scratch.used_inputs) input_used[in_port] = 0;
  scratch.used_inputs.clear();
}

template <class Sink>
void Simulator::sa_switch_active(NodeId u, std::uint64_t now, bool in_window,
                                 const std::vector<std::uint32_t>& active,
                                 SaScratch& scratch, Sink& sink) {
  SwitchState& sw = switches_[u];
  std::vector<std::uint8_t>& input_used = scratch.input_used;
  const std::uint32_t total_ivcs = sw.num_ports * config_.vcs;
  DSN_ASSERT(total_ivcs < (1u << 20), "cand encoding holds 20-bit VC indices");

  // Order every active VC by (output port, cyclic distance from that port's
  // round-robin pointer): exactly the sequence in which the full scan would
  // have reached it. Encoded op<<40 | key<<20 | idx so one sort yields both
  // the per-port grouping and the in-port arbitration order. Keys use the
  // pre-grant pointers, which is sound: a grant only moves its own port's
  // pointer, and later candidates of the same port are skipped anyway.
  auto& cands = scratch.rr_candidates;
  cands.clear();
  for (const std::uint32_t idx : active) {
    const std::uint32_t op = sw.in[idx].out_port;
    const std::uint32_t rr = sw.sa_rr[op];
    const std::uint32_t key = idx >= rr ? idx - rr : idx + total_ivcs - rr;
    cands.push_back((std::uint64_t{op} << 40) | (std::uint64_t{key} << 20) | idx);
  }
  std::sort(cands.begin(), cands.end());

  for (std::size_t i = 0; i < cands.size();) {
    const std::uint32_t op = static_cast<std::uint32_t>(cands[i] >> 40);
    std::uint32_t granted = total_ivcs;
    for (; i < cands.size() && static_cast<std::uint32_t>(cands[i] >> 40) == op;
         ++i) {
      if (granted != total_ivcs) continue;  // grant made: drain the group
      const std::uint32_t idx = static_cast<std::uint32_t>(cands[i] & 0xFFFFFu);
      const InputVc& ivc = sw.in[idx];
      // The guards mirror the full scan exactly — a listed VC that fails
      // them is skipped with the same (non-)effects the scan would produce.
      if (!ivc.active() || ivc.out_port != op) continue;
      const std::uint32_t in_port = idx / config_.vcs;
      if (input_used[in_port]) continue;
      if (ivc.buffer.empty()) continue;
      const std::uint32_t ovc = op * config_.vcs + ivc.out_vc;
      apply_due_credits(sw, ovc, now);
      if (sw.out[ovc].credits == 0) {
        DSN_OBS_ADD(sim_detail::SimMetrics::get().credit_stalls, 1);
        continue;
      }
      granted = idx;
    }
    if (granted != total_ivcs) {
      sa_apply_grant(u, op, granted, now, in_window, scratch, sink);
    }
  }

  for (const std::uint32_t in_port : scratch.used_inputs) input_used[in_port] = 0;
  scratch.used_inputs.clear();
}

}  // namespace dsn
