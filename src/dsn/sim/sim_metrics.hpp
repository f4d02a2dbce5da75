// Shared metric ids for the simulator cores. Lives in its own header (not an
// anonymous namespace of simulator.cpp) because the switch-allocation kernel
// and the active-set core are separate TUs that must update the exact same
// counters — two registrations would be idempotent, but a shared struct keeps
// the id set reviewable in one place.
#pragma once

#include "dsn/obs/obs.hpp"

#if DSN_OBS

#include <string>

namespace dsn::sim_detail {

struct SimMetrics {
  obs::MetricId hops = obs::MetricsRegistry::global().counter("dsn.sim.hops");
  obs::MetricId credit_stalls =
      obs::MetricsRegistry::global().counter("dsn.sim.credit_stalls");
  obs::MetricId fault_events =
      obs::MetricsRegistry::global().counter("dsn.sim.fault_events");
  obs::MetricId in_flight =
      obs::MetricsRegistry::global().gauge("dsn.sim.in_flight_packets");
  obs::MetricId latency_cycles = obs::MetricsRegistry::global().histogram(
      "dsn.sim.packet_latency_cycles",
      {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384});
  // Active-set core health: calendar events drained (wire arrivals, head-ready
  // times, NIC wakeups and look-ahead injections; credit returns are applied
  // when read and are not events), input VCs examined by the allocation
  // pass, and switches visited by switch allocation. Counted per shard and
  // folded into the registry once per cycle from the serial merge section,
  // so totals are byte-identical for every sim_threads value.
  obs::MetricId active_events =
      obs::MetricsRegistry::global().counter("dsn.sim.active.events");
  obs::MetricId active_alloc_checks =
      obs::MetricsRegistry::global().counter("dsn.sim.active.alloc_checks");
  obs::MetricId active_sa_visits =
      obs::MetricsRegistry::global().counter("dsn.sim.active.sa_visits");

  static const SimMetrics& get() {
    static SimMetrics metrics;
    return metrics;
  }
};

}  // namespace dsn::sim_detail

#endif  // DSN_OBS
