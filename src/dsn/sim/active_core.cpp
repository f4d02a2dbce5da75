// dsn-slint: deterministic — the active-set core must replay byte-identically
// against the legacy full-scan core for any shard count; every work list is
// kept in (or restored to) ascending component order before processing and
// every cross-shard merge runs in shard order at a phase barrier.
//
// Active-set simulator engine. The legacy core pays O(switches × ports × vcs)
// per cycle regardless of load, plus one Bernoulli draw per host per cycle;
// this engine touches only components with work, and a host only when it
// injects:
//
//   - a wakeup calendar per shard (ring of per-cycle buckets + a far heap)
//     holds exact-time events: wire arrivals, head-ready timestamps, NIC
//     retry wakeups, and each host's next Bernoulli injection;
//   - look-ahead injection: a host's generator is stepped in one tight loop
//     to its next successful draw, which becomes a calendar event; the event
//     draws the destination next, the legacy order. The look-ahead stops at
//     the earlier of the window end and the next fault-event cycle; at that
//     cycle every host on a live switch re-arms, so a halted switch's hosts
//     draw nothing while it is down, exactly as in the legacy loop;
//   - credit returns are not events: each return is queued at its upstream
//     output VC, stamped with the cycle it counts from, and VC and switch
//     allocation add the due ones when they read that VC's credits;
//   - per-stage active sets: input VCs awaiting VC allocation, switches with
//     allocated flits to move, NICs with queued packets;
//   - the network is sharded by contiguous switch ranges across the global
//     dsn::ThreadPool with three parallel phases per cycle (deliver+allocate,
//     switch allocation, NIC streaming) separated by serial merge sections.
//
// Determinism argument (the equivalence suite asserts all of this):
//   - every wire queue and every credit queue has exactly one writer (the
//     single upstream (switch, port) or the port's own NIC) and switch
//     allocation grants at most one flit per output port per cycle, so at
//     most one push per queue per cycle exists and cross-shard pushes can be
//     mailboxed and drained at the barrier in shard order without changing
//     any queue's contents;
//   - work lists are processed in ascending global component id — exactly
//     the legacy scan order — so arbitration (output-VC claiming, round-robin
//     pointers) sees identical state in identical order;
//   - every host owns its generator, which draws once per cycle the host's
//     switch is alive before the window end, in the legacy order (Bernoulli,
//     then destination on a hit), whether it runs ahead or not;
//   - a credit return counts from now + max(link_delay, 1), the cycle in
//     which the legacy core's start-of-cycle pass applies it, and both cores
//     read credits only after every due return is in;
//   - the injections due in a cycle are sorted by host, and packet pool
//     slots and ids are assigned in the serial injection section in host
//     order; per-shard frees/latencies/traces/stat deltas are merged in
//     shard order, which equals the legacy per-cycle append order because
//     shards cover ascending switch ranges.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "dsn/common/thread_pool.hpp"
#include "dsn/sim/sim_metrics.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/switch_kernel.hpp"

namespace dsn {

#if DSN_OBS
using sim_detail::SimMetrics;
#endif  // DSN_OBS

namespace {

// Calendar event encoding: 4-bit type tag in the top bits, component id in
// the payload. Ordering between event types within a cycle is fixed by the
// processing passes (wire and injection, then head-ready, then NIC wake) and
// the host sort of injections, never by the encoded value.
constexpr std::uint64_t kEvWire = 0;    ///< payload: global wire (input port) id
constexpr std::uint64_t kEvHead = 1;    ///< payload: global input-VC id
constexpr std::uint64_t kEvNic = 2;     ///< payload: host id
constexpr std::uint64_t kEvInject = 3;  ///< payload: host id

constexpr std::uint64_t kEvShift = 60;
constexpr std::uint64_t kEvPayloadMask = (std::uint64_t{1} << kEvShift) - 1;

inline std::uint64_t enc_event(std::uint64_t type, std::uint64_t payload) {
  return (type << kEvShift) | payload;
}

inline std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

class ActiveCore {
 public:
  explicit ActiveCore(Simulator& sim) : S(sim) {}

  SimResult run();

 private:
  using Arrival = Simulator::Arrival;
  using InputVc = Simulator::InputVc;
  using SwitchState = Simulator::SwitchState;
  using NicState = Simulator::NicState;

  /// Exact-time wakeup calendar: a power-of-two ring of per-cycle event
  /// buckets for near events plus a min-heap for events beyond the horizon.
  /// Events are lazy: processing re-checks the component state (queue fronts,
  /// ready times), so stale registrations left behind by purges are no-ops
  /// and re-registration is always safe.
  struct Calendar {
    std::vector<std::vector<std::uint64_t>> buckets;
    std::uint64_t mask = 0;
    std::priority_queue<std::pair<std::uint64_t, std::uint64_t>,
                        std::vector<std::pair<std::uint64_t, std::uint64_t>>,
                        std::greater<std::pair<std::uint64_t, std::uint64_t>>>
        far;

    void init(std::uint64_t horizon_pow2) {
      buckets.assign(horizon_pow2, {});
      mask = horizon_pow2 - 1;
    }
    /// Schedule `ev` at absolute cycle `due` (caller guarantees the bucket
    /// for `due` has not been drained yet this cycle, i.e. due >= now except
    /// for same-cycle head-ready events appended mid-drain).
    void schedule(std::uint64_t due, std::uint64_t now_cycle, std::uint64_t ev) {
      if (due - now_cycle >= buckets.size()) {
        far.emplace(due, ev);
      } else {
        buckets[due & mask].push_back(ev);
      }
    }
  };

  struct WireMail {
    std::uint32_t wire_gid;
    Arrival a;
  };
  struct CreditMail {
    std::uint32_t credit_gid;
    std::uint64_t due;
  };

  struct Shard {
    Calendar cal;
    /// Input VCs awaiting VC allocation (head ready, not yet granted).
    /// Sorted ascending before processing; blocked entries stay listed so
    /// they are re-arbitrated every cycle exactly like the legacy scan.
    std::vector<std::uint32_t> alloc_pending;
    bool alloc_dirty = false;
    /// Switches with at least one active input VC holding buffered flits.
    std::vector<std::uint32_t> sa_list;
    bool sa_dirty = false;
    /// NICs with streaming, queued, or retry work.
    std::vector<std::uint32_t> nic_list;
    /// Cross-shard pushes, drained at the post-SA barrier in shard order.
    std::vector<std::vector<WireMail>> wire_out;
    std::vector<std::vector<CreditMail>> credit_out;
    Simulator::SaScratch scratch;
    std::vector<RouteCandidate> cand_scratch;
    std::vector<PacketSlot> freed;
    std::vector<PacketSlot> ttl_out;
    /// This cycle's injections as (src, dst), sorted by src after the drain.
    std::vector<std::pair<HostId, HostId>> draws;
    std::vector<std::uint32_t> latencies;
    std::vector<PacketTrace> traces;
    // Per-cycle stat deltas, folded into the simulator totals in shard order.
    std::uint64_t d_ejected = 0;
    std::uint64_t d_meas_delivered = 0;
    std::uint64_t d_meas_hops = 0;
    std::uint64_t d_delivered = 0;
    std::uint64_t d_epoch_delivered = 0;
    std::uint64_t d_inflight_dec = 0;
    bool d_progress = false;
    bool d_delivered_any = false;
    // Per-shard instrumentation counts (folded once per cycle, serially).
    std::uint64_t c_events = 0;
    std::uint64_t c_alloc_checks = 0;
    std::uint64_t c_sa_visits = 0;
  };

  /// Switch-allocation sink for one shard: same-shard pushes go straight to
  /// the target queue (plus a calendar registration), cross-shard pushes are
  /// mailboxed; accounting goes to the shard delta.
  struct ShardSink {
    ActiveCore* C;
    Shard* sh;
    std::size_t s;

    void push_wire(NodeId down_sw, std::uint32_t dport, const Arrival& a) {
      const std::uint32_t gid = C->wire_base_[down_sw] + dport;
      const std::size_t dest = C->shard_of_switch_[down_sw];
      if (dest == s) {
        C->S.switches_[down_sw].wire[dport].push_back(a);
        sh->cal.schedule(std::max(a.cycle, C->now_ + 1), C->now_,
                         enc_event(kEvWire, gid));
      } else {
        sh->wire_out[dest].push_back({gid, a});
      }
    }
    void push_credit(NodeId up_sw, std::uint32_t idx, std::uint64_t due) {
      const std::size_t dest = C->shard_of_switch_[up_sw];
      if (dest == s) {
        C->S.switches_[up_sw].credits[idx].push_back(due);
      } else {
        sh->credit_out[dest].push_back({C->ivc_base_[up_sw] + idx, due});
      }
    }
    void add_ejected_flits(std::uint32_t flits) { sh->d_ejected += flits; }
    void on_measured_delivery(Packet& pkt, std::uint64_t eject) {
      ++sh->d_meas_delivered;
      sh->d_meas_hops += pkt.hops;
      DSN_OBS_OBSERVE(SimMetrics::get().latency_cycles, eject - pkt.gen_cycle);
      sh->latencies.push_back(static_cast<std::uint32_t>(eject - pkt.gen_cycle));
      // Over-approximate the global trace cap with the pre-cycle global size
      // (stable during the parallel phase); the serial merge enforces the
      // exact cut in shard order — identical to the legacy fill order.
      if (C->S.config_.record_packet_traces &&
          C->S.traces_.size() + sh->traces.size() < C->S.config_.trace_limit) {
        sh->traces.push_back({pkt.id, pkt.src_host, pkt.dst_host, pkt.gen_cycle,
                              pkt.inject_cycle, eject, pkt.hops, pkt.retries});
      }
    }
    void on_delivery(std::uint64_t, std::uint64_t) {
      ++sh->d_delivered;
      ++sh->d_epoch_delivered;
      sh->d_delivered_any = true;
    }
    void release_packet(PacketSlot slot) {
      ++sh->d_inflight_dec;
      sh->freed.push_back(slot);
    }
    void after_grant(NodeId u, std::uint32_t idx, bool went_idle) {
      InputVc& ivc = C->S.switches_[u].in[idx];
      // The granted VC was listed active (active + nonempty was a grant
      // precondition); recompute its membership after the pop.
      if (went_idle || ivc.buffer.empty()) C->sa_remove(u, idx);
      // Tail departure exposes the next packet's head (if buffered): re-arm
      // its allocation wakeup from the packet's routable cycle.
      if (went_idle && !ivc.buffer.empty() && ivc.buffer.front().head) {
        const std::uint32_t gid = C->ivc_base_[u] + idx;
        sh->cal.schedule(std::max(C->S.front_routable_at(ivc), C->now_ + 1), C->now_,
                         enc_event(kEvHead, gid));
      }
    }
    void on_progress(std::uint64_t) { sh->d_progress = true; }
  };

  void build();
  void rebuild_active_sets();
  void phase_deliver_allocate(std::size_t s);
  void phase_switch_allocation(std::size_t s);
  void phase_nic_stream(std::size_t s);
  /// Run a parallel phase for every shard and return once all are done (the
  /// barrier before the next serial section). One shard runs inline on the
  /// calling thread with no pool traffic: a sweep of one-shard simulations
  /// already occupies every pool worker.
  void each_shard(void (ActiveCore::*phase)(std::size_t)) {
    if (nshards_ == 1) {
      (this->*phase)(0);
      return;
    }
    ThreadPool::global().parallel_for(0, nshards_,
                                      [this, phase](std::size_t s) { (this->*phase)(s); });
  }
  void serial_inject();
  void serial_ttl_purge();
  void serial_merge();

  void deliver_wire(Shard& sh, std::uint32_t wire_gid);
  void arm_host(Shard& sh, HostId h, std::uint64_t from);
  void consider_alloc_listing(std::uint32_t ivc_gid);

  void list_alloc(std::uint32_t ivc_gid) {
    if (alloc_listed_[ivc_gid]) return;
    alloc_listed_[ivc_gid] = 1;
    Shard& sh = shards_[shard_of_switch_[ivc_switch_[ivc_gid]]];
    sh.alloc_pending.push_back(ivc_gid);
    sh.alloc_dirty = true;
  }
  /// List input VC `local` of switch `u` as active (allocated, with a
  /// nonempty buffer) for switch allocation, listing the switch itself on
  /// first membership. The per-switch lists are unordered sets — the
  /// sa_switch_active kernel re-sorts by round-robin key, so insertion and
  /// removal order never reach arbitration.
  void sa_add(NodeId u, std::uint32_t local) {
    const std::uint32_t gid = ivc_base_[u] + local;
    if (sa_member_[gid]) return;
    sa_member_[gid] = 1;
    sa_active_[u].push_back(local);
    if (sa_listed_[u]) return;
    sa_listed_[u] = 1;
    Shard& sh = shards_[shard_of_switch_[u]];
    sh.sa_list.push_back(u);
    sh.sa_dirty = true;
  }
  void sa_remove(NodeId u, std::uint32_t local) {
    const std::uint32_t gid = ivc_base_[u] + local;
    if (!sa_member_[gid]) return;
    sa_member_[gid] = 0;
    auto& v = sa_active_[u];
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == local) {  // swap-pop: set semantics, order irrelevant
        v[i] = v.back();
        v.pop_back();
        break;
      }
    }
  }
  void list_nic(HostId h) {
    if (nic_listed_[h]) return;
    nic_listed_[h] = 1;
    shards_[shard_of_switch_[h / S.config_.hosts_per_switch]].nic_list.push_back(h);
  }

  Simulator& S;

  std::size_t nshards_ = 1;
  std::vector<std::uint32_t> shard_begin_;      ///< switch range per shard
  std::vector<std::uint32_t> shard_of_switch_;  ///< switch -> shard
  std::vector<std::uint32_t> ivc_base_;   ///< switch -> first global IVC id
  std::vector<std::uint32_t> wire_base_;  ///< switch -> first global wire id
  std::vector<std::uint32_t> ivc_switch_;   ///< global IVC id -> switch
  std::vector<std::uint32_t> wire_switch_;  ///< global wire id -> switch

  std::vector<std::uint8_t> alloc_listed_;  ///< per global IVC id
  std::vector<std::uint8_t> sa_listed_;     ///< per switch
  std::vector<std::uint8_t> sa_member_;     ///< per global IVC id: in sa_active_
  /// Per switch: local indices of active+nonempty input VCs — the candidate
  /// set sa_switch_active arbitrates over (unordered; kernel sorts by RR key).
  std::vector<std::vector<std::uint32_t>> sa_active_;
  std::vector<std::uint8_t> nic_listed_;    ///< per host

  std::vector<Shard> shards_;

  /// Rng::bernoulli_cut of the per-cycle packet rate (0: no open-loop
  /// generation, e.g. under an injection trace).
  std::uint64_t inject_cut_ = 0;
  /// Look-ahead draws stop before this cycle: the window end or the next
  /// fault-event cycle, whichever comes first.
  std::uint64_t inject_bound_ = 0;
  /// Set for the cycle at which every live host re-arms its look-ahead.
  bool rearm_hosts_ = false;

  std::uint64_t now_ = 0;
  bool in_window_ = false;
  std::uint64_t window_end_ = 0;
};

void ActiveCore::build() {
  const std::uint32_t n = S.num_switches_;
  std::size_t threads = S.config_.sim_threads == 0
                            ? ThreadPool::global().size()
                            : S.config_.sim_threads;
  if (threads < 1) threads = 1;
  nshards_ = std::min<std::size_t>(threads, n);

  shard_begin_.assign(nshards_ + 1, 0);
  const std::uint32_t base = n / static_cast<std::uint32_t>(nshards_);
  const std::uint32_t rem = n % static_cast<std::uint32_t>(nshards_);
  for (std::size_t s = 0; s < nshards_; ++s) {
    shard_begin_[s + 1] = shard_begin_[s] + base + (s < rem ? 1 : 0);
  }
  shard_of_switch_.assign(n, 0);
  for (std::size_t s = 0; s < nshards_; ++s) {
    for (std::uint32_t u = shard_begin_[s]; u < shard_begin_[s + 1]; ++u) {
      shard_of_switch_[u] = static_cast<std::uint32_t>(s);
    }
  }

  ivc_base_.assign(n, 0);
  wire_base_.assign(n, 0);
  std::uint32_t ivc_total = 0;
  std::uint32_t wire_total = 0;
  for (NodeId u = 0; u < n; ++u) {
    ivc_base_[u] = ivc_total;
    wire_base_[u] = wire_total;
    ivc_total += S.switches_[u].num_ports * S.config_.vcs;
    wire_total += S.switches_[u].num_ports;
  }
  ivc_switch_.assign(ivc_total, 0);
  wire_switch_.assign(wire_total, 0);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t ivcs = S.switches_[u].num_ports * S.config_.vcs;
    for (std::uint32_t i = 0; i < ivcs; ++i) ivc_switch_[ivc_base_[u] + i] = u;
    for (std::uint32_t p = 0; p < S.switches_[u].num_ports; ++p) {
      wire_switch_[wire_base_[u] + p] = u;
    }
  }

  alloc_listed_.assign(ivc_total, 0);
  sa_listed_.assign(n, 0);
  sa_member_.assign(ivc_total, 0);
  sa_active_.assign(n, {});
  nic_listed_.assign(S.num_hosts_, 0);

  // Horizon covering every bounded registration delay (wire/credit pushes,
  // head-ready, and retry backoffs up to their cap); rarer far events (the
  // injection look-ahead at low load) spill into the per-shard heap.
  const std::uint64_t span =
      std::max({S.link_delay_, S.router_delay_, kRetryBackoffCapCycles}) + 2;
  const std::uint64_t horizon = next_pow2(span);

  shards_.resize(nshards_);
  for (Shard& sh : shards_) {
    sh.cal.init(horizon);
    sh.wire_out.resize(nshards_);
    sh.credit_out.resize(nshards_);
    sh.scratch.input_used.assign(S.max_ports_, 0);
    sh.scratch.used_inputs.reserve(S.max_ports_);
  }

  window_end_ = S.config_.warmup_cycles + S.config_.measure_cycles;
  inject_cut_ =
      S.use_trace_ ? 0 : Rng::bernoulli_cut(S.config_.packet_rate_per_cycle());
}

void ActiveCore::rebuild_active_sets() {
  for (Shard& sh : shards_) {
    sh.alloc_pending.clear();
    sh.alloc_dirty = false;
    sh.sa_list.clear();
    sh.sa_dirty = false;
    sh.nic_list.clear();
  }
  std::fill(alloc_listed_.begin(), alloc_listed_.end(), 0);
  std::fill(sa_listed_.begin(), sa_listed_.end(), 0);
  std::fill(sa_member_.begin(), sa_member_.end(), 0);
  std::fill(nic_listed_.begin(), nic_listed_.end(), 0);

  for (NodeId u = 0; u < S.num_switches_; ++u) {
    SwitchState& sw = S.switches_[u];
    Shard& sh = shards_[shard_of_switch_[u]];
    sa_active_[u].clear();
    const std::uint32_t ivcs = sw.num_ports * S.config_.vcs;
    for (std::uint32_t i = 0; i < ivcs; ++i) {
      InputVc& ivc = sw.in[i];
      if (ivc.active() && !ivc.buffer.empty()) {
        sa_member_[ivc_base_[u] + i] = 1;
        sa_active_[u].push_back(i);
      }
      if (!ivc.active() && !ivc.buffer.empty() && ivc.buffer.front().head) {
        const std::uint32_t gid = ivc_base_[u] + i;
        const std::uint64_t ready = S.front_routable_at(ivc);
        if (ready <= now_) {
          list_alloc(gid);
        } else {
          sh.cal.schedule(ready, now_, enc_event(kEvHead, gid));
        }
      }
    }
    if (!sa_active_[u].empty()) {
      sa_listed_[u] = 1;
      sh.sa_list.push_back(u);  // ascending u per shard: already sorted
    }
  }
  for (HostId h = 0; h < S.num_hosts_; ++h) {
    const NicState& nic = S.nics_[h];
    // Conservative: NICs whose only work is a far-future retry get listed
    // too; their first visit computes the exact wakeup and unlists them.
    if (nic.streaming != kInvalidPacketSlot || !nic.source_queue.empty() ||
        !nic.retry_queue.empty()) {
      list_nic(h);
    }
  }
}

void ActiveCore::deliver_wire(Shard& sh, std::uint32_t wire_gid) {
  const NodeId u = wire_switch_[wire_gid];
  SwitchState& sw = S.switches_[u];
  const std::uint32_t port = wire_gid - wire_base_[u];
  auto& wire = sw.wire[port];
  while (!wire.empty() && wire.front().cycle <= now_) {
    const Arrival a = wire.front();
    wire.pop_front();
    InputVc& ivc = sw.in[port * S.config_.vcs + a.vc];
    DSN_ASSERT(ivc.buffer.size() < S.config_.buffer_flits,
               "credit flow control must prevent buffer overflow");
    const bool was_empty = ivc.buffer.empty();
    if (a.flit.head) {
      S.packets_[a.flit.packet].routable_at = now_ + S.router_delay_;
      sh.cal.schedule(now_ + S.router_delay_, now_,
                      enc_event(kEvHead, ivc_base_[u] + port * S.config_.vcs + a.vc));
    }
    ivc.buffer.push_back(a.flit);
    if (was_empty && ivc.active()) {
      sa_add(u, port * S.config_.vcs + a.vc);
    }
  }
}

void ActiveCore::arm_host(Shard& sh, HostId h, std::uint64_t from) {
  // Draw once per cycle from `from` until a hit or the bound. A local copy
  // keeps the generator state in registers through the loop. After a hit
  // the generator is untouched until the event draws the destination.
  Rng rng = S.nics_[h].rng;
  const std::uint64_t cut = inject_cut_;
  const std::uint64_t bound = inject_bound_;
  std::uint64_t c = from;
  while (c < bound && !rng.bernoulli_below(cut)) ++c;
  if (c < bound) sh.cal.schedule(c, now_, enc_event(kEvInject, h));
  S.nics_[h].rng = rng;
}

void ActiveCore::consider_alloc_listing(std::uint32_t ivc_gid) {
  const NodeId u = ivc_switch_[ivc_gid];
  // Lazy event: list only if the VC is allocatable right now. A stale
  // registration (head already granted, purged, or re-timed by a purge) is a
  // no-op — the rebuild registered a fresh event if needed.
  if (S.head_routable(S.switches_[u].in[ivc_gid - ivc_base_[u]], now_)) list_alloc(ivc_gid);
}

void ActiveCore::phase_deliver_allocate(std::size_t s) {
  Shard& sh = shards_[s];
  const std::uint32_t hps = S.config_.hosts_per_switch;
  const HostId host_begin = shard_begin_[s] * hps;
  const HostId host_end = shard_begin_[s + 1] * hps;

  // Window start or a fault-event cycle: every host on a live switch looks
  // ahead from this cycle (hits due now land in the bucket drained below).
  if (rearm_hosts_) {
    for (HostId h = host_begin; h < host_end; ++h) {
      if (S.faults_armed_ && !S.switch_alive_[h / hps]) continue;
      arm_host(sh, h, now_);
    }
  }

  // Drain this cycle's calendar bucket in typed passes (wire and injection
  // before head-ready before NIC wakes). Head-ready events registered
  // mid-drain for this same cycle (router_delay == 0) append to the live
  // bucket; the index-based loops pick them up. An injection draws its
  // destination, hands the packet to the serial injection section and
  // re-arms its host from the next cycle.
  auto& bucket = sh.cal.buckets[now_ & sh.cal.mask];
  while (!sh.cal.far.empty() && sh.cal.far.top().first <= now_) {
    bucket.push_back(sh.cal.far.top().second);
    sh.cal.far.pop();
  }
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const std::uint64_t type = bucket[i] >> kEvShift;
    const std::uint64_t payload = bucket[i] & kEvPayloadMask;
    if (type == kEvWire) {
      deliver_wire(sh, static_cast<std::uint32_t>(payload));
    } else if (type == kEvInject) {
      const auto h = static_cast<HostId>(payload);
      sh.draws.emplace_back(h, S.traffic_->dest(h, S.nics_[h].rng));
      arm_host(sh, h, now_ + 1);
    }
  }
  std::sort(sh.draws.begin(), sh.draws.end());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] >> kEvShift == kEvHead) {
      consider_alloc_listing(static_cast<std::uint32_t>(bucket[i] & kEvPayloadMask));
    }
  }
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] >> kEvShift == kEvNic) {
      list_nic(static_cast<std::uint32_t>(bucket[i] & kEvPayloadMask));
    }
  }
  sh.c_events += bucket.size();
  bucket.clear();

  // Strided TTL sweep over this shard's NIC queues (same stride as legacy).
  if (S.config_.packet_ttl_cycles != 0 && now_ % Simulator::kTtlSweepStride == 0) {
    S.sweep_nic_ttl(now_, host_begin, host_end, sh.ttl_out);
  }

  // VC allocation over the pending list in ascending global IVC id — the
  // legacy (switch, port, vc) scan order — so output-VC claiming conflicts
  // resolve identically. Blocked entries stay listed (re-arbitrated every
  // cycle); granted or stale entries are unlisted in place.
  if (sh.alloc_dirty) {
    std::sort(sh.alloc_pending.begin(), sh.alloc_pending.end());
    sh.alloc_dirty = false;
  }
  std::size_t keep = 0;
  for (std::size_t i = 0; i < sh.alloc_pending.size(); ++i) {
    const std::uint32_t gid = sh.alloc_pending[i];
    const NodeId u = ivc_switch_[gid];
    const std::uint32_t local = gid - ivc_base_[u];
    InputVc& ivc = S.switches_[u].in[local];
    ++sh.c_alloc_checks;
    if (!S.head_routable(ivc, now_)) {
      alloc_listed_[gid] = 0;
      continue;
    }
    // TTL guard mirrors the legacy allocation scan: expired heads are
    // collected (purged serially after the phase) and stay listed — the
    // purge rebuild resets every list anyway.
    if (S.config_.packet_ttl_cycles != 0 &&
        now_ - S.packets_[ivc.buffer.front().packet].gen_cycle >
            S.config_.packet_ttl_cycles) {
      sh.ttl_out.push_back(ivc.buffer.front().packet);
      sh.alloc_pending[keep++] = gid;
      continue;
    }
    const std::uint32_t port = local / S.config_.vcs;
    const std::uint32_t vc = local % S.config_.vcs;
    if (S.try_allocate(u, port, vc, now_, sh.cand_scratch)) {
      alloc_listed_[gid] = 0;
      sa_add(u, local);
    } else {
      sh.alloc_pending[keep++] = gid;  // blocked: retry next cycle
    }
  }
  sh.alloc_pending.resize(keep);
}

void ActiveCore::phase_switch_allocation(std::size_t s) {
  Shard& sh = shards_[s];
  if (sh.sa_dirty) {
    std::sort(sh.sa_list.begin(), sh.sa_list.end());
    sh.sa_dirty = false;
  }
  ShardSink sink{this, &sh, s};
  std::size_t keep = 0;
  for (std::size_t i = 0; i < sh.sa_list.size(); ++i) {
    const NodeId u = sh.sa_list[i];
    if (sa_active_[u].empty()) {
      sa_listed_[u] = 0;  // quiesced since its last grant: drop from the list
      continue;
    }
    ++sh.c_sa_visits;
    // The restricted-arbitration kernel: O(active VCs) per switch instead of
    // the full O(ports x vcs) scan, byte-identical grants and stall counts.
    S.sa_switch_active(u, now_, in_window_, sa_active_[u], sh.scratch, sink);
    sh.sa_list[keep++] = u;
  }
  sh.sa_list.resize(keep);
}

void ActiveCore::phase_nic_stream(std::size_t s) {
  Shard& sh = shards_[s];
  const std::uint32_t hps = S.config_.hosts_per_switch;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < sh.nic_list.size(); ++i) {
    const HostId h = sh.nic_list[i];
    const NodeId sw_id = h / hps;
    SwitchState& sw = S.switches_[sw_id];
    const std::uint32_t in_port = sw.num_net_ports + (h % hps);
    auto& wq = sw.wire[in_port];
    const std::size_t wired_before = wq.size();
    std::uint64_t wake_at = 0;
    const bool keep_listed = S.nic_step(h, now_, &wake_at);
    if (wq.size() != wired_before) {
      // The NIC put a flit on its injection wire: register its arrival.
      sh.cal.schedule(std::max(wq.back().cycle, now_ + 1), now_,
                      enc_event(kEvWire, wire_base_[sw_id] + in_port));
    }
    if (keep_listed) {
      sh.nic_list[keep++] = h;
    } else {
      nic_listed_[h] = 0;
      if (wake_at != 0) {
        // Only backing-off retries remain: sleep until the earliest matures.
        sh.cal.schedule(std::max(wake_at, now_ + 1), now_, enc_event(kEvNic, h));
      }
    }
  }
  sh.nic_list.resize(keep);
}

void ActiveCore::serial_inject() {
  if (S.use_trace_) {
    while (S.trace_cursor_ < S.injection_trace_.size() &&
           S.injection_trace_[S.trace_cursor_].cycle <= now_) {
      const TraceEntry& e = S.injection_trace_[S.trace_cursor_++];
      S.enqueue_packet(e.src, e.dst, now_);
      list_nic(e.src);
    }
    return;
  }
  // Shards cover ascending host ranges, so shard-order concatenation of the
  // per-shard draw lists is exactly the legacy host-order generation loop —
  // packet ids and pool slots come out identical.
  for (Shard& sh : shards_) {
    for (const auto& [src, dst] : sh.draws) {
      S.enqueue_packet(src, dst, now_);
      list_nic(src);
    }
    sh.draws.clear();
  }
}

void ActiveCore::serial_ttl_purge() {
  bool any = false;
  for (Shard& sh : shards_) {
    if (sh.ttl_out.empty()) continue;
    any = true;
    S.ttl_expired_.insert(S.ttl_expired_.end(), sh.ttl_out.begin(),
                          sh.ttl_out.end());
    sh.ttl_out.clear();
  }
  if (!any) return;
  S.purge_packets(S.ttl_expired_, now_, /*allow_requeue=*/false, /*ttl=*/true,
                  nullptr);
  S.recompute_credits();
  S.ttl_expired_.clear();
  // Purges mutate arbitrary component state (erased flits, released
  // allocations, re-timed heads, requeued retries): rebuild every work list
  // from the surviving state instead of patching incrementally.
  rebuild_active_sets();
}

void ActiveCore::serial_merge() {
  bool delivered_any = false;
  std::uint64_t events = 0;
  std::uint64_t alloc_checks = 0;
  std::uint64_t sa_visits = 0;
  for (std::size_t s = 0; s < nshards_; ++s) {
    Shard& sh = shards_[s];
    S.ejected_flits_in_window_ += sh.d_ejected;
    S.measured_delivered_ += sh.d_meas_delivered;
    S.measured_hops_ += sh.d_meas_hops;
    S.delivered_total_ += sh.d_delivered;
    if (S.config_.epoch_cycles != 0 && sh.d_epoch_delivered != 0) {
      S.epoch_at(now_).delivered += sh.d_epoch_delivered;
    }
    S.in_flight_packets_ -= sh.d_inflight_dec;
    if (sh.d_progress) S.last_progress_cycle_ = now_;
    delivered_any = delivered_any || sh.d_delivered_any;
    for (const std::uint32_t lat : sh.latencies) {
      S.measured_latencies_.push_back(lat);
    }
    for (const PacketTrace& tr : sh.traces) {
      if (S.traces_.size() < S.config_.trace_limit) S.traces_.push_back(tr);
    }
    for (const PacketSlot slot : sh.freed) S.free_slots_.push_back(slot);
    sh.latencies.clear();
    sh.traces.clear();
    sh.freed.clear();
    sh.d_ejected = sh.d_meas_delivered = sh.d_meas_hops = 0;
    sh.d_delivered = sh.d_epoch_delivered = sh.d_inflight_dec = 0;
    sh.d_progress = false;
    sh.d_delivered_any = false;
    events += sh.c_events;
    alloc_checks += sh.c_alloc_checks;
    sa_visits += sh.c_sa_visits;
    sh.c_events = sh.c_alloc_checks = sh.c_sa_visits = 0;

    // Cross-shard handoff: every one of these queues has a single writer and
    // receives at most one push per cycle, so draining src shards in order
    // reproduces the legacy push sequence exactly.
    for (std::size_t dest = 0; dest < nshards_; ++dest) {
      for (const WireMail& m : sh.wire_out[dest]) {
        const NodeId u = wire_switch_[m.wire_gid];
        S.switches_[u].wire[m.wire_gid - wire_base_[u]].push_back(m.a);
        shards_[dest].cal.schedule(std::max(m.a.cycle, now_ + 1), now_,
                                   enc_event(kEvWire, m.wire_gid));
      }
      sh.wire_out[dest].clear();
      for (const CreditMail& m : sh.credit_out[dest]) {
        const NodeId u = ivc_switch_[m.credit_gid];
        S.switches_[u].credits[m.credit_gid - ivc_base_[u]].push_back(m.due);
      }
      sh.credit_out[dest].clear();
    }
  }
  if (delivered_any) {
    // Any delivery ends the reconnection window of pending down events
    // (same eject timestamp for every delivery of this cycle).
    const std::uint64_t eject = now_ + S.link_delay_;
    for (const std::size_t idx : S.pending_reconnect_) {
      S.fault_log_[idx].reconnected = true;
      S.fault_log_[idx].reconnect_cycles = eject - S.fault_log_[idx].event.cycle;
    }
    S.pending_reconnect_.clear();
  }
#if DSN_OBS
  if (events != 0) DSN_OBS_ADD(SimMetrics::get().active_events, events);
  if (alloc_checks != 0) {
    DSN_OBS_ADD(SimMetrics::get().active_alloc_checks, alloc_checks);
  }
  if (sa_visits != 0) DSN_OBS_ADD(SimMetrics::get().active_sa_visits, sa_visits);
#else
  (void)events;
  (void)alloc_checks;
  (void)sa_visits;
#endif
}

SimResult ActiveCore::run() {
  build();
  rebuild_active_sets();

  const std::uint64_t hard_end = window_end_ + S.config_.drain_cycles;
  const std::uint64_t watchdog = 4 * (S.router_delay_ + S.link_delay_) +
                                 4ull * S.config_.packet_flits + 10'000;
  const std::uint64_t window_start = S.config_.warmup_cycles;

  bool deadlock = false;
  std::uint64_t now = 0;
  S.last_progress_cycle_ = 0;
  for (; now < hard_end; ++now) {
    now_ = now;
    in_window_ = now >= window_start && now < window_end_;

    if (S.faults_armed_ && S.apply_fault_events(now)) rebuild_active_sets();
    rearm_hosts_ = inject_cut_ != 0 && now == inject_bound_ && now < window_end_;
    if (rearm_hosts_) {
      // This cycle's fault events are applied; the next one bounds the
      // look-ahead.
      inject_bound_ = window_end_;
      const std::span<const FaultEvent> events = S.fault_schedule_.events();
      if (S.fault_cursor_ < events.size()) {
        inject_bound_ = std::min(inject_bound_, events[S.fault_cursor_].cycle);
      }
    }

    each_shard(&ActiveCore::phase_deliver_allocate);
    serial_inject();
    serial_ttl_purge();
    each_shard(&ActiveCore::phase_switch_allocation);
    serial_merge();
    each_shard(&ActiveCore::phase_nic_stream);

    DSN_OBS_ONLY(S.emit_trace_sample(now);)
    DSN_OBS_GAUGE_SET(SimMetrics::get().in_flight,
                      static_cast<std::int64_t>(S.in_flight_packets_));

    if (now >= window_end_ &&
        S.measured_delivered_ + S.measured_dropped_ == S.measured_generated_) {
      ++now;
      break;  // every measured packet accounted (delivered or dropped) — done
    }
    if (S.in_flight_packets_ > 0 && now - S.last_progress_cycle_ > watchdog) {
      deadlock = true;
      break;
    }
  }

  return S.finalize_result(now, deadlock);
}

SimResult Simulator::run_active() {
  ActiveCore core(*this);
  return core.run();
}

}  // namespace dsn
