// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/sim/fault.hpp"

#include <algorithm>
#include <string>

#include "dsn/common/json.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSwitchDown:
      return "switch-down";
    case FaultKind::kSwitchUp:
      return "switch-up";
  }
  return "unknown";
}

FaultSchedule& FaultSchedule::add(FaultEvent ev) {
  // Insert before the first later event: keeps the list sorted by cycle with
  // same-cycle events in insertion order (stable).
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), ev,
      [](const FaultEvent& a, const FaultEvent& b) { return a.cycle < b.cycle; });
  events_.insert(pos, ev);
  return *this;
}

FaultSchedule& FaultSchedule::link_down(std::uint64_t cycle, LinkId link) {
  return add({cycle, FaultKind::kLinkDown, link});
}

FaultSchedule& FaultSchedule::link_up(std::uint64_t cycle, LinkId link) {
  return add({cycle, FaultKind::kLinkUp, link});
}

FaultSchedule& FaultSchedule::switch_down(std::uint64_t cycle, NodeId node) {
  return add({cycle, FaultKind::kSwitchDown, node});
}

FaultSchedule& FaultSchedule::switch_up(std::uint64_t cycle, NodeId node) {
  return add({cycle, FaultKind::kSwitchUp, node});
}

void FaultSchedule::validate(const Topology& topo) const {
  for (const FaultEvent& ev : events_) {
    const bool link = ev.kind == FaultKind::kLinkDown || ev.kind == FaultKind::kLinkUp;
    const std::size_t count = link ? topo.graph.num_links() : topo.graph.num_nodes();
    if (ev.id >= count) {
      throw PreconditionError("fault schedule: " + std::string(fault_kind_name(ev.kind)) + " " +
                              std::to_string(ev.id) + " at cycle " + std::to_string(ev.cycle) +
                              " is outside [0, " + std::to_string(count) + "), the topology's " +
                              (link ? "links" : "switches"));
    }
  }
}

LinkId drill_victim_link(const Topology& topo) {
  const Graph& g = topo.graph;
  const NodeId n = g.num_nodes();
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    const NodeId gap = u < v ? v - u : u - v;
    if (gap != 1 && gap != n - 1) return l;
  }
  return 0;
}

FaultSchedule make_link_flap_schedule(const Topology& topo, double down_prob,
                                      std::uint64_t check_interval,
                                      std::uint64_t repair_cycles, std::uint64_t horizon,
                                      std::uint64_t seed,
                                      std::span<const LinkId> candidates) {
  DSN_REQUIRE(down_prob >= 0.0 && down_prob <= 1.0, "down_prob must be in [0, 1]");
  DSN_REQUIRE(check_interval >= 1, "check_interval must be positive");
  std::vector<LinkId> all;
  if (candidates.empty()) {
    all.resize(topo.graph.num_links());
    for (LinkId l = 0; l < all.size(); ++l) all[l] = l;
    candidates = all;
  }
  for (const LinkId l : candidates) {
    DSN_REQUIRE(l < topo.graph.num_links(), "flap candidate link out of range");
  }

  FaultSchedule schedule;
  Rng rng(seed);
  // up_at[i]: cycle at which candidate i is repaired (0 = currently up).
  std::vector<std::uint64_t> up_at(candidates.size(), 0);
  for (std::uint64_t t = check_interval; t < horizon; t += check_interval) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (up_at[i] > t) continue;  // still down, repair already scheduled
      if (!rng.bernoulli(down_prob)) continue;
      schedule.link_down(t, candidates[i]);
      schedule.link_up(t + repair_cycles, candidates[i]);
      up_at[i] = t + repair_cycles;
    }
  }
  return schedule;
}

namespace {

Json fault_record_json(const FaultRecord& r) {
  Json j = Json::object();
  j.set("cycle", r.event.cycle);
  j.set("kind", fault_kind_name(r.event.kind));
  j.set("id", std::uint64_t{r.event.id});
  j.set("flits_dropped", r.flits_dropped);
  j.set("packets_dropped", r.packets_dropped);
  j.set("packets_requeued", r.packets_requeued);
  j.set("rebuilt_routing", r.rebuilt_routing);
  j.set("reconnected", r.reconnected);
  j.set("reconnect_cycles", r.reconnect_cycles);
  return j;
}

Json epoch_json(const EpochStats& e) {
  Json j = Json::object();
  j.set("start_cycle", e.start_cycle);
  j.set("injected", e.injected);
  j.set("delivered", e.delivered);
  j.set("dropped", e.dropped);
  j.set("retried", e.retried);
  return j;
}

}  // namespace

Json to_json(const SimResult& r) {
  Json j = Json::object();
  j.set("offered_gbps_per_host", r.offered_gbps_per_host);
  j.set("accepted_gbps_per_host", r.accepted_gbps_per_host);
  j.set("avg_latency_ns", r.avg_latency_ns);
  j.set("p50_latency_ns", r.p50_latency_ns);
  j.set("p99_latency_ns", r.p99_latency_ns);
  j.set("avg_hops", r.avg_hops);
  j.set("packets_measured", r.packets_measured);
  j.set("packets_delivered", r.packets_delivered);
  j.set("drained", r.drained);
  j.set("deadlock", r.deadlock);
  j.set("cycles_run", r.cycles_run);
  j.set("packets_generated_total", r.packets_generated_total);
  j.set("packets_delivered_total", r.packets_delivered_total);
  j.set("packets_dropped", r.packets_dropped);
  j.set("packets_dropped_ttl", r.packets_dropped_ttl);
  j.set("packets_retried", r.packets_retried);
  j.set("flits_dropped", r.flits_dropped);
  j.set("packets_in_flight_at_end", r.packets_in_flight_at_end);
  j.set("conservation_ok", r.conservation_ok);
  j.set("routing_rebuilds", std::uint64_t{r.routing_rebuilds});
  Json faults = Json::array();
  for (const FaultRecord& rec : r.fault_log) faults.push_back(fault_record_json(rec));
  j.set("fault_log", std::move(faults));
  Json epochs = Json::array();
  for (const EpochStats& e : r.epochs) epochs.push_back(epoch_json(e));
  j.set("epochs", std::move(epochs));
  return j;
}

Json degradation_curve_json(const SimResult& r) {
  Json j = Json::object();
  j.set("packets_generated_total", r.packets_generated_total);
  j.set("packets_delivered_total", r.packets_delivered_total);
  j.set("packets_dropped", r.packets_dropped);
  j.set("packets_retried", r.packets_retried);
  j.set("conservation_ok", r.conservation_ok);
  Json faults = Json::array();
  for (const FaultRecord& rec : r.fault_log) faults.push_back(fault_record_json(rec));
  j.set("faults", std::move(faults));
  Json epochs = Json::array();
  for (const EpochStats& e : r.epochs) epochs.push_back(epoch_json(e));
  j.set("epochs", std::move(epochs));
  return j;
}

}  // namespace dsn
