// Pinned digests of whole flit-simulator runs: the SimResult JSON and the
// packet traces, each hashed with 64-bit FNV-1a, for a matrix of policies,
// buffer shapes, switching modes, zero-delay pipelines, fault schedules and
// an injection trace. Every case runs on the legacy core and on the active
// core at 1 and 4 shards, and all three must hit the same pinned digests.
// CoreEquivalence.* compares the two cores with each other, so it cannot see
// a change in the state both cores share (flits, VCs, packets, NICs); these
// goldens can. Grouped under `ctest -L determinism` (determinism.unit).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

/// 64-bit FNV-1a over raw bytes and little-endian 64-bit values.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

struct Digests {
  std::string result;  ///< to_json(SimResult).dump()
  std::string traces;  ///< every PacketTrace field, in trace order
};

Digests run_digests(const Topology& topo, SimRoutingPolicy& policy, SimConfig cfg,
                    bool legacy, std::uint32_t sim_threads,
                    const FaultSchedule* faults = nullptr,
                    const std::vector<TraceEntry>* injections = nullptr) {
  cfg.record_packet_traces = true;
  cfg.legacy_core = legacy;
  cfg.sim_threads = sim_threads;
  UniformTraffic traffic(topo.num_nodes() * cfg.hosts_per_switch);
  Simulator sim(topo, policy, traffic, cfg);
  if (faults != nullptr) sim.set_fault_schedule(*faults);
  if (injections != nullptr) sim.set_injection_trace(*injections);
  const SimResult res = sim.run();
  Fnv1a r;
  for (const char c : to_json(res).dump()) r.byte(static_cast<unsigned char>(c));
  Fnv1a t;
  for (const PacketTrace& p : sim.packet_traces()) {
    for (const std::uint64_t v : {p.id, std::uint64_t{p.src_host}, std::uint64_t{p.dst_host},
                                  p.gen_cycle, p.inject_cycle, p.eject_cycle,
                                  std::uint64_t{p.hops}, std::uint64_t{p.retries}}) {
      t.u64(v);
    }
  }
  return {r.hex(), t.hex()};
}

/// The legacy core and the active core at 1 and 4 shards must all reproduce
/// the pinned digests.
void expect_golden(const Topology& topo, SimRoutingPolicy& policy, const SimConfig& cfg,
                   const char* result, const char* traces,
                   const FaultSchedule* faults = nullptr,
                   const std::vector<TraceEntry>* injections = nullptr) {
  struct Core {
    bool legacy;
    std::uint32_t threads;
  };
  for (const Core core : {Core{true, 1}, Core{false, 1}, Core{false, 4}}) {
    SCOPED_TRACE(std::string(core.legacy ? "legacy" : "active") +
                 " sim_threads=" + std::to_string(core.threads));
    const Digests d = run_digests(topo, policy, cfg, core.legacy, core.threads,
                                  faults, injections);
    EXPECT_EQ(d.result, result);
    EXPECT_EQ(d.traces, traces);
  }
}

SimConfig golden_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 2'000;
  cfg.drain_cycles = 40'000;
  cfg.offered_gbps_per_host = 6.0;
  return cfg;
}

TEST(SimGolden, PoliciesAtFourAndEightVcs) {
  const Dsn dsn(64, dsn_default_x(64));
  const Topology& topo = dsn.topology();
  const SimRouting routing(topo);
  struct Pins {
    const char* result;
    const char* traces;
  };
  struct Case {
    std::uint32_t vcs;
    Pins adaptive, updown, custom;
  };
  const Case cases[] = {
      {4,
       {"23498bd73c21dd1b", "55a131c2519feb0d"},
       {"d6979c9665e0654d", "cf04e350c52317c5"},
       {"fe818582578f3aa7", "4fad47382bf40a75"}},
      {8,
       {"fc02572495ade9eb", "19828759df9ffbdd"},
       {"5bea69853d280dd9", "8e04f36e71c528ac"},
       {"0cfb463d6eabdb02", "0caa351213e8d1e4"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("vcs=" + std::to_string(c.vcs));
    SimConfig cfg = golden_config();
    cfg.vcs = c.vcs;
    AdaptiveUpDownPolicy adaptive(routing, c.vcs);
    UpDownOnlyPolicy updown(routing, c.vcs);
    DsnCustomPolicy custom(dsn, c.vcs);
    const std::pair<SimRoutingPolicy*, Pins> runs[] = {
        {&adaptive, c.adaptive}, {&updown, c.updown}, {&custom, c.custom}};
    for (const auto& [policy, pins] : runs) {
      SCOPED_TRACE(policy->name());
      expect_golden(topo, *policy, cfg, pins.result, pins.traces);
    }
  }
}

TEST(SimGolden, TwoHeadsQueueInOneVc) {
  // 66-flit buffers hold two 33-flit packets: at this load a second head
  // waits behind a blocked first one in the same input VC.
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = golden_config();
  cfg.buffer_flits = 66;
  cfg.offered_gbps_per_host = 16.0;
  expect_golden(dsn.topology(), policy, cfg, "af1ea173d340c0af", "dd6fa80b01bf0b11");
}

TEST(SimGolden, WormholeShallowBuffers) {
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = golden_config();
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;
  cfg.offered_gbps_per_host = 10.0;
  expect_golden(dsn.topology(), policy, cfg, "b76e5dcfbac5a7bc", "8f68f1c4fbf84a66");
}

TEST(SimGolden, ZeroRouterAndLinkDelay) {
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = golden_config();
  cfg.router_delay_ns = 0.0;
  cfg.link_delay_ns = 0.0;
  cfg.offered_gbps_per_host = 12.0;
  expect_golden(dsn.topology(), policy, cfg, "dd9079d6bb1a4001", "e85f65248b089d2c");
}

/// A link that goes down and comes back, and a switch that halts and
/// revives, with retries and a packet TTL.
FaultSchedule flap_schedule(const Topology& topo) {
  const LinkId link = drill_victim_link(topo);
  FaultSchedule schedule;
  schedule.link_down(700, link).switch_down(1'100, 9).link_up(1'600, link).switch_up(2'100, 9);
  return schedule;
}

SimConfig fault_config() {
  SimConfig cfg = golden_config();
  cfg.epoch_cycles = 250;
  cfg.packet_ttl_cycles = 3'000;
  cfg.retry_backoff_cycles = 32;
  return cfg;
}

TEST(SimGolden, LinkAndSwitchFlapsTwoHeadsPerVc) {
  // The purges land on VCs that hold several queued heads, so the post-fault
  // re-route timing of every unallocated head is pinned.
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = fault_config();
  cfg.buffer_flits = 66;
  cfg.offered_gbps_per_host = 16.0;
  const FaultSchedule schedule = flap_schedule(dsn.topology());
  expect_golden(dsn.topology(), policy, cfg, "2dcaeed2aadb807d", "5e29e2a8da46731f", &schedule);
}

TEST(SimGolden, LinkAndSwitchFlapsWormhole) {
  // Wormhole packets span switches when a fault cuts them.
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = fault_config();
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;
  cfg.offered_gbps_per_host = 10.0;
  const FaultSchedule schedule = flap_schedule(dsn.topology());
  expect_golden(dsn.topology(), policy, cfg, "ef8fbad7e1f026b5", "2f6837dbde419cad", &schedule);
}

TEST(SimGolden, InjectionTrace) {
  const Dsn dsn(64, dsn_default_x(64));
  const SimRouting routing(dsn.topology());
  AdaptiveUpDownPolicy policy(routing, 4);
  const SimConfig cfg = golden_config();
  const HostId hosts = 64 * cfg.hosts_per_switch;
  std::vector<TraceEntry> injections;
  for (std::uint64_t c = 0; c < 2'000; c += 2) {
    injections.push_back({c, static_cast<HostId>((c * 7) % hosts),
                          static_cast<HostId>((c * 13 + 5) % hosts)});
  }
  expect_golden(dsn.topology(), policy, cfg, "861c742a9c6c464d", "012563e25084fa7f", nullptr, &injections);
}

}  // namespace
}  // namespace dsn
