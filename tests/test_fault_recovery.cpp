// Live fault injection & recovery: schedule mechanics, rerouting around dead
// links/switches, retry + drop accounting, epoch curves, JSON reports, and
// the golden determinism contract (same schedule + seed => byte-identical
// SimResult for any routing-rebuild worker count).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

SimConfig drill_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2'000;
  cfg.drain_cycles = 60'000;
  cfg.offered_gbps_per_host = 1.0;
  return cfg;
}

// --------------------------------------------------------------------------
// FaultSchedule mechanics.
// --------------------------------------------------------------------------

TEST(FaultSchedule, KeepsEventsSortedAndStable) {
  FaultSchedule s;
  s.link_down(500, 1).switch_down(100, 2).link_up(500, 3).link_down(50, 4);
  ASSERT_EQ(s.size(), 4u);
  const auto ev = s.events();
  EXPECT_EQ(ev[0].cycle, 50u);
  EXPECT_EQ(ev[1].cycle, 100u);
  // Same-cycle events keep insertion order: link 1 down before link 3 up.
  EXPECT_EQ(ev[2].id, 1u);
  EXPECT_EQ(ev[3].id, 3u);
}

TEST(FaultSchedule, ValidateRejectsOutOfRangeIds) {
  const Topology ring = make_topology_by_name("ring", 8);
  FaultSchedule bad_link;
  bad_link.link_down(0, 99);
  EXPECT_THROW(bad_link.validate(ring), PreconditionError);
  FaultSchedule bad_switch;
  bad_switch.switch_down(0, 8);
  EXPECT_THROW(bad_switch.validate(ring), PreconditionError);
}

TEST(FaultSchedule, FlapModelIsSeedDeterministic) {
  const Topology topo = make_topology_by_name("dsn", 64);
  const auto a = make_link_flap_schedule(topo, 0.02, 500, 2'000, 20'000, 7);
  const auto b = make_link_flap_schedule(topo, 0.02, 500, 2'000, 20'000, 7);
  const auto c = make_link_flap_schedule(topo, 0.02, 500, 2'000, 20'000, 8);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  ASSERT_FALSE(a.empty());
  // Every down has a paired repair exactly repair_cycles later.
  std::size_t downs = 0, ups = 0;
  for (const FaultEvent& ev : a.events()) {
    if (ev.kind == FaultKind::kLinkDown) ++downs;
    if (ev.kind == FaultKind::kLinkUp) ++ups;
  }
  EXPECT_EQ(downs, ups);
}

TEST(FaultSchedule, TextRoundTrip) {
  FaultSchedule s;
  s.link_down(10, 3).switch_down(20, 1).link_up(2'010, 3).switch_up(5'000, 1);
  const std::string text = format_fault_schedule(s);
  const FaultSchedule parsed = parse_fault_schedule_text(text);
  EXPECT_TRUE(s == parsed);
  EXPECT_THROW(parse_fault_schedule_text("10 link-sideways 3\n"), PreconditionError);
  EXPECT_THROW(parse_fault_schedule_text("10 link-down\n"), PreconditionError);
}

/// The PreconditionError message parse_fault_schedule_text throws on `text`,
/// or "" when it parses.
std::string schedule_error(const std::string& text) {
  try {
    parse_fault_schedule_text(text);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return {};
}

TEST(FaultSchedule, TextRejectsMalformedLinesWithTheirLineNumber) {
  // Trailing words used to be ignored: this parsed as one link-down event.
  EXPECT_EQ(schedule_error("100 link-down 3 extra words\n"),
            "malformed fault schedule line 1: 100 link-down 3 extra words "
            "(expected \"cycle kind id\")");
  EXPECT_EQ(schedule_error("# header\n\n10 link-down 3\n20 link-up -3\n"),
            "malformed fault schedule line 4: 20 link-up -3 (expected id as an unsigned "
            "decimal)");
  EXPECT_EQ(schedule_error("10 link-down 4294967296\n"),
            "malformed fault schedule line 1: 10 link-down 4294967296 (expected id <= "
            "4294967295)");
  EXPECT_EQ(schedule_error("10 link-sideways 3\n"),
            "unknown fault kind 'link-sideways' on fault schedule line 1: 10 link-sideways 3 "
            "(expected link-down, link-up, switch-down or switch-up)");
}

// --------------------------------------------------------------------------
// Recovery behavior.
// --------------------------------------------------------------------------

TEST(FaultRecovery, ReroutesAroundDeadShortcut) {
  const Topology topo = make_topology_by_name("dsn", 64);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(64 * 4);
  SimConfig cfg = drill_config();

  FaultSchedule schedule;
  schedule.link_down(500, drill_victim_link(topo));
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.drained);
  EXPECT_TRUE(res.conservation_ok);
  EXPECT_EQ(res.packets_delivered, res.packets_measured);
  ASSERT_EQ(res.fault_log.size(), 1u);
  EXPECT_TRUE(res.fault_log[0].rebuilt_routing);
  EXPECT_TRUE(res.fault_log[0].reconnected);
  EXPECT_EQ(res.routing_rebuilds, 1u);
}

TEST(FaultRecovery, DsnCustomPolicyRingFallbackSurvivesShortcutLoss) {
  const std::uint32_t n = 64;
  const Dsn d(n, dsn_default_x(n));
  const Topology& topo = d.topology();
  DsnCustomPolicy policy(d);
  UniformTraffic traffic(n * 4);
  SimConfig cfg = drill_config();
  cfg.offered_gbps_per_host = 0.5;

  FaultSchedule schedule;
  schedule.link_down(500, drill_victim_link(topo));
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.drained);
  EXPECT_TRUE(res.conservation_ok);
  EXPECT_EQ(res.packets_delivered, res.packets_measured);
}

TEST(FaultRecovery, HealRestoresAndMeasuresReconnect) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();

  const LinkId victim = drill_victim_link(topo);
  FaultSchedule schedule;
  // Both events land inside the 2'000-cycle generation window so the sim
  // cannot drain before the repair.
  schedule.link_down(400, victim).link_up(1'500, victim);
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  ASSERT_TRUE(res.drained);
  ASSERT_EQ(res.fault_log.size(), 2u);
  EXPECT_TRUE(res.fault_log[0].reconnected);
  EXPECT_GT(res.fault_log[0].reconnect_cycles, 0u);
  // Healing rebuilds again (back to the pristine tables).
  EXPECT_EQ(res.routing_rebuilds, 2u);
  EXPECT_TRUE(res.conservation_ok);
}

TEST(FaultRecovery, NoRecoveryNegativeControlDropsTraffic) {
  // With recovery disabled a halted switch turns its traffic into TTL drops;
  // the accounting must still balance exactly.
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.rebuild_routing_on_fault = false;
  cfg.retry_on_fault = false;
  cfg.packet_ttl_cycles = 3'000;

  FaultSchedule schedule;
  schedule.switch_down(300, 7);
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.conservation_ok);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets_retried, 0u);
  EXPECT_TRUE(res.drained);
}

TEST(FaultRecovery, SwitchHaltWithRecoveryConservesPackets) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  // Destinations on the dead switch are unreachable until it revives; the
  // TTL guard accounts for packets that exhaust their patience first.
  cfg.packet_ttl_cycles = 4'000;

  FaultSchedule schedule;
  schedule.switch_down(500, 9).switch_up(6'000, 9);
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  EXPECT_FALSE(res.deadlock);
  EXPECT_TRUE(res.drained);
  EXPECT_TRUE(res.conservation_ok);
  EXPECT_EQ(res.packets_delivered_total + res.packets_dropped,
            res.packets_generated_total);
}

TEST(FaultRecovery, ExhaustedRetriesBecomeDrops) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.max_retries = 0;  // first damage is final

  FaultSchedule schedule;
  schedule.link_down(500, drill_victim_link(topo));
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  EXPECT_TRUE(res.drained);
  EXPECT_TRUE(res.conservation_ok);
  EXPECT_EQ(res.packets_retried, 0u);
  ASSERT_EQ(res.fault_log.size(), 1u);
  EXPECT_EQ(res.fault_log[0].packets_requeued, 0u);
  EXPECT_EQ(res.fault_log[0].packets_dropped, res.packets_dropped);
}

TEST(FaultRecovery, RedundantEventsAreIgnored) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();

  const LinkId victim = drill_victim_link(topo);
  FaultSchedule schedule;
  schedule.link_down(500, victim).link_down(600, victim).link_up(601, victim);
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  ASSERT_TRUE(res.drained);
  // The second down was a no-op: only one down + one up in the log.
  ASSERT_EQ(res.fault_log.size(), 2u);
  EXPECT_EQ(res.fault_log[1].event.kind, FaultKind::kLinkUp);
}

// --------------------------------------------------------------------------
// Epoch curves and JSON reports.
// --------------------------------------------------------------------------

TEST(FaultRecovery, EpochTotalsMatchGlobalCounters) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.epoch_cycles = 1'000;

  FaultSchedule schedule;
  schedule.link_down(700, drill_victim_link(topo));
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  ASSERT_TRUE(res.drained);
  ASSERT_FALSE(res.epochs.empty());
  std::uint64_t injected = 0, delivered = 0, dropped = 0, retried = 0;
  for (const EpochStats& e : res.epochs) {
    injected += e.injected;
    delivered += e.delivered;
    dropped += e.dropped;
    retried += e.retried;
  }
  EXPECT_EQ(injected, res.packets_generated_total);
  EXPECT_EQ(delivered, res.packets_delivered_total);
  EXPECT_EQ(dropped, res.packets_dropped);
  EXPECT_EQ(retried, res.packets_retried);
  // Epoch buckets start on epoch boundaries.
  for (std::size_t i = 0; i < res.epochs.size(); ++i) {
    EXPECT_EQ(res.epochs[i].start_cycle, i * cfg.epoch_cycles);
  }
}

TEST(FaultRecovery, JsonReportsExposeTheDegradationCurve) {
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.epoch_cycles = 1'000;

  FaultSchedule schedule;
  schedule.link_down(700, drill_victim_link(topo));
  Simulator sim(topo, policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult res = sim.run();

  const Json full = to_json(res);
  EXPECT_TRUE(full.has("conservation_ok"));
  EXPECT_TRUE(full.has("fault_log"));
  EXPECT_TRUE(full.has("epochs"));
  EXPECT_EQ(full.at("fault_log").size(), res.fault_log.size());
  EXPECT_EQ(full.at("epochs").size(), res.epochs.size());

  const Json curve = degradation_curve_json(res);
  EXPECT_TRUE(curve.has("faults"));
  ASSERT_EQ(curve.at("epochs").size(), res.epochs.size());
  // The dump parses back (shape sanity for consumers).
  const Json reparsed = Json::parse(curve.dump());
  EXPECT_EQ(reparsed.at("epochs").size(), res.epochs.size());
}

// --------------------------------------------------------------------------
// Golden determinism: identical schedule + seed => byte-identical results and
// traces, no matter how many workers rebuild the routing tables.
// --------------------------------------------------------------------------

TEST(FaultDeterminism, ByteIdenticalAcrossRebuildWorkerCounts) {
  const Topology topo = make_topology_by_name("dsn", 32);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.epoch_cycles = 1'000;
  cfg.record_packet_traces = true;
  // Switch 11 never revives: packets headed there must age out.
  cfg.packet_ttl_cycles = 3'000;

  const LinkId victim = drill_victim_link(topo);
  FaultSchedule schedule;
  schedule.link_down(400, victim).link_up(4'000, victim).switch_down(1'500, 11);

  std::vector<std::string> dumps;
  std::vector<std::vector<PacketTrace>> traces;
  for (const std::size_t workers : {1u, 4u, 8u}) {
    ThreadPool pool(workers);
    SimRouting routing(topo, &pool);
    AdaptiveUpDownPolicy policy(routing, 4, &pool);
    Simulator sim(topo, policy, traffic, cfg);
    sim.set_fault_schedule(schedule);
    const SimResult res = sim.run();
    dumps.push_back(to_json(res).dump());
    traces.emplace_back(sim.packet_traces().begin(), sim.packet_traces().end());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

TEST(FaultDeterminism, ShardedActiveCoreMatchesLegacyUnderFaults) {
  // The sharded active-set core under a live fault drill: purges, retries,
  // TTL expiries and routing rebuilds while shards exchange flits through
  // mailboxes. Lives in the faults binary so the TSan CI leg (-L faults)
  // races the epoch barriers; the byte-compare against the legacy core is
  // the determinism gate.
  const Topology topo = make_topology_by_name("dsn", 32);
  UniformTraffic traffic(32 * 4);
  SimConfig cfg = drill_config();
  cfg.epoch_cycles = 1'000;
  cfg.record_packet_traces = true;
  // Switch 11 never revives: packets headed there must age out.
  cfg.packet_ttl_cycles = 3'000;

  const LinkId victim = drill_victim_link(topo);
  FaultSchedule schedule;
  schedule.link_down(400, victim).link_up(4'000, victim).switch_down(1'500, 11);

  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  const auto run_once = [&](bool legacy, std::uint32_t sim_threads) {
    SimConfig run_cfg = cfg;
    run_cfg.legacy_core = legacy;
    run_cfg.sim_threads = sim_threads;
    Simulator sim(topo, policy, traffic, run_cfg);
    sim.set_fault_schedule(schedule);
    const SimResult res = sim.run();
    return std::pair<std::string, std::vector<PacketTrace>>(
        to_json(res).dump(),
        {sim.packet_traces().begin(), sim.packet_traces().end()});
  };
  const auto baseline = run_once(/*legacy=*/true, 1);
  for (const std::uint32_t threads : {4u, 8u}) {
    const auto active = run_once(/*legacy=*/false, threads);
    EXPECT_EQ(baseline.first, active.first) << "sim_threads=" << threads;
    EXPECT_EQ(baseline.second, active.second) << "sim_threads=" << threads;
  }
}

TEST(FaultDeterminism, TraceReplayWithFaultsIsReproducible) {
  // Reuse the trace-replay machinery: a fixed injection schedule plus a fault
  // timeline must give identical per-packet traces on every run.
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic unused(16 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1'000;
  cfg.drain_cycles = 40'000;
  cfg.record_packet_traces = true;
  // Switch 3 never revives: packets headed there must age out.
  cfg.packet_ttl_cycles = 3'000;

  std::vector<TraceEntry> injections;
  for (std::uint64_t c = 0; c < 800; c += 5) {
    injections.push_back({c, static_cast<HostId>(c % 64),
                          static_cast<HostId>((c * 13 + 5) % 64)});
  }
  FaultSchedule schedule;
  schedule.link_down(200, drill_victim_link(topo)).switch_down(600, 3);

  const auto run_once = [&] {
    Simulator sim(topo, policy, unused, cfg);
    sim.set_injection_trace(injections);
    sim.set_fault_schedule(schedule);
    const SimResult res = sim.run();
    return std::pair<std::string, std::vector<PacketTrace>>(
        to_json(res).dump(),
        {sim.packet_traces().begin(), sim.packet_traces().end()});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace dsn
