// Golden byte-identical equivalence between the two simulator cores: the
// legacy full-scan core (SimConfig::legacy_core) is the behavioral baseline,
// and the active-set core must reproduce its SimResult — including latency
// percentiles, degradation curves, fault records, drop/retry accounting and
// the conservation recount — byte-for-byte at every shard count, for every
// traffic pattern, both switching modes, zero-delay pipelines (with and
// without credit starvation), fuzzed fault schedules, switch revival inside
// the injection window, and trace replay. Grouped under
// `ctest -L determinism` via the determinism.core_equivalence entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

struct RunOutput {
  std::string dump;
  std::vector<PacketTrace> traces;
};

RunOutput run_core(const Topology& topo, SimRoutingPolicy& policy,
                   const TrafficPattern& traffic, SimConfig cfg, bool legacy,
                   std::uint32_t sim_threads,
                   const FaultSchedule* faults = nullptr,
                   const std::vector<TraceEntry>* injections = nullptr) {
  cfg.legacy_core = legacy;
  cfg.sim_threads = sim_threads;
  Simulator sim(topo, policy, traffic, cfg);
  if (faults != nullptr) sim.set_fault_schedule(*faults);
  if (injections != nullptr) sim.set_injection_trace(*injections);
  const SimResult res = sim.run();
  return {to_json(res).dump(),
          {sim.packet_traces().begin(), sim.packet_traces().end()}};
}

/// Run the legacy baseline, then the active core at 1, 4 and 8 shards; every
/// active run must match the baseline byte-for-byte.
void expect_cores_identical(const Topology& topo, SimRoutingPolicy& policy,
                            const TrafficPattern& traffic, const SimConfig& cfg,
                            const FaultSchedule* faults = nullptr,
                            const std::vector<TraceEntry>* injections = nullptr) {
  const RunOutput baseline =
      run_core(topo, policy, traffic, cfg, /*legacy=*/true, 1, faults, injections);
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    const RunOutput active = run_core(topo, policy, traffic, cfg,
                                      /*legacy=*/false, threads, faults, injections);
    EXPECT_EQ(baseline.dump, active.dump) << "sim_threads=" << threads;
    EXPECT_TRUE(baseline.traces == active.traces) << "sim_threads=" << threads;
  }
}

SimConfig equivalence_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1'200;
  cfg.drain_cycles = 40'000;
  cfg.offered_gbps_per_host = 2.0;
  cfg.record_packet_traces = true;
  return cfg;
}

TEST(CoreEquivalence, SixTrafficPatternsByteIdentical) {
  // 64 switches x 4 hosts = 256 hosts: a square, power-of-two count, so the
  // 2-D (neighboring/transpose) and bit-permutation patterns all apply.
  const Topology topo = make_topology_by_name("dsn", 64);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  const SimConfig cfg = equivalence_config();
  const std::uint32_t hosts = 64 * cfg.hosts_per_switch;
  for (const char* pattern : {"uniform", "bit-reversal", "neighboring",
                              "transpose", "shuffle", "hotspot"}) {
    SCOPED_TRACE(pattern);
    const auto traffic = make_traffic(pattern, hosts);
    expect_cores_identical(topo, policy, *traffic, cfg);
  }
}

TEST(CoreEquivalence, WormholeSwitchingByteIdentical) {
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;  // packets span switches: credit stalls on every path
  const auto traffic = make_traffic("transpose", 16 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg);
}

TEST(CoreEquivalence, ZeroDelayPipelineByteIdentical) {
  // router_delay = 0 makes head flits routable the cycle they arrive (the
  // active core appends to the in-flight calendar bucket mid-drain) and
  // link_delay = 0 exercises the next-cycle registration floor for pushes.
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.router_delay_ns = 0.0;
  cfg.link_delay_ns = 0.0;
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg);
}

TEST(CoreEquivalence, ZeroDelayWormholeCongestionByteIdentical) {
  // Zero-delay links with 8-flit wormhole buffers at loads where credits run
  // out: a credit freed in one cycle must not count before the next. The
  // VCT case above never runs out of credits, so it cannot see a return
  // applied a cycle early.
  const Dsn dsn(32, dsn_default_x(32));
  const Topology& topo = dsn.topology();
  SimRouting routing(topo);
  AdaptiveUpDownPolicy adaptive(routing, 4);
  DsnCustomPolicy custom(dsn, 4);
  SimConfig cfg = equivalence_config();
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;
  cfg.router_delay_ns = 0.0;
  cfg.link_delay_ns = 0.0;
  const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
  for (const double load : {8.0, 24.0}) {
    cfg.offered_gbps_per_host = load;
    for (SimRoutingPolicy* policy : {static_cast<SimRoutingPolicy*>(&adaptive),
                                     static_cast<SimRoutingPolicy*>(&custom)}) {
      SCOPED_TRACE(std::string(policy == &adaptive ? "adaptive" : "custom") +
                   " at " + std::to_string(load) + " Gb/s");
      expect_cores_identical(topo, *policy, *traffic, cfg);
    }
  }
}

TEST(CoreEquivalence, CustomPolicyHighLoadByteIdentical) {
  // The table-free custom policy at a load past saturation: persistent
  // credit stalls keep the allocation pending lists full, so the blocked
  // re-arbitration path (not just the fast path) is compared.
  const Dsn dsn(32, dsn_default_x(32));
  const Topology& topo = dsn.topology();
  DsnCustomPolicy policy(dsn, 4);
  SimConfig cfg = equivalence_config();
  cfg.offered_gbps_per_host = 24.0;
  cfg.measure_cycles = 800;
  const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg);
}

TEST(CoreEquivalence, FuzzedFaultScheduleByteIdentical) {
  // A seeded random link-flap storm plus a permanent switch death: purges,
  // retries with backoff, TTL expiries (strided NIC sweeps), routing
  // rebuilds, epoch curves and reconnect records all flow into the dump.
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.epoch_cycles = 500;
  cfg.packet_ttl_cycles = 3'000;
  cfg.retry_backoff_cycles = 32;

  for (const std::uint32_t fuzz_seed : {11u, 29u}) {
    SCOPED_TRACE(fuzz_seed);
    FaultSchedule schedule =
        make_link_flap_schedule(topo, 0.05, 200, 1'500, 12'000, fuzz_seed);
    schedule.switch_down(900, 7);
    const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
    expect_cores_identical(topo, policy, *traffic, cfg, &schedule);
  }
}

TEST(CoreEquivalence, SwitchRevivalInsideInjectionWindowByteIdentical) {
  // The active core draws each host's next packet ahead, up to the next
  // fault-event cycle. Hosts of a halted switch must draw nothing while it
  // is down and resume on revival, as the legacy per-cycle loop does: one
  // switch is down from cycle 0, a second goes down and comes back inside
  // the injection window, and the first revives exactly at its end.
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.offered_gbps_per_host = 4.0;
  cfg.epoch_cycles = 500;
  cfg.packet_ttl_cycles = 3'000;
  const std::uint64_t window_end = cfg.warmup_cycles + cfg.measure_cycles;
  FaultSchedule schedule;
  schedule.switch_down(0, 5)
      .switch_down(400, 12)
      .switch_up(900, 12)
      .switch_up(window_end, 5);
  const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg, &schedule);
}

TEST(CoreEquivalence, TraceReplayWithFaultsByteIdentical) {
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.packet_ttl_cycles = 3'000;

  std::vector<TraceEntry> injections;
  for (std::uint64_t c = 0; c < 900; c += 3) {
    injections.push_back({c, static_cast<HostId>(c % 64),
                          static_cast<HostId>((c * 13 + 5) % 64)});
  }
  FaultSchedule schedule;
  schedule.link_down(250, drill_victim_link(topo)).switch_down(650, 3);
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg, &schedule, &injections);
}

TEST(CoreEquivalence, TtlSweepStrideIsCoreInvariant) {
  // The strided NIC-queue TTL sweep decides when queued packets expire; both
  // cores must run it on the same cycles and agree exactly.
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.packet_ttl_cycles = 2'000;
  FaultSchedule schedule;
  schedule.switch_down(400, 5);  // never revives: its traffic must age out
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  expect_cores_identical(topo, policy, *traffic, cfg, &schedule);
}

TEST(CoreEquivalence, ThreadCountExceedingSwitchesClamps) {
  // More shards than switches (and sim_threads = 0: global pool size) must
  // clamp rather than mispartition.
  const Topology topo = make_topology_by_name("ring", 4);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 2);
  SimConfig cfg = equivalence_config();
  cfg.vcs = 2;
  cfg.measure_cycles = 600;
  const auto traffic = make_traffic("uniform", 4 * cfg.hosts_per_switch);
  const RunOutput baseline =
      run_core(topo, policy, *traffic, cfg, /*legacy=*/true, 1);
  for (const std::uint32_t threads : {0u, 3u, 16u}) {
    const RunOutput active =
        run_core(topo, policy, *traffic, cfg, /*legacy=*/false, threads);
    EXPECT_EQ(baseline.dump, active.dump) << "sim_threads=" << threads;
    EXPECT_TRUE(baseline.traces == active.traces) << "sim_threads=" << threads;
  }
}

}  // namespace
}  // namespace dsn
