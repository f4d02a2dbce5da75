// Trace-driven injection tests: parsing, replay determinism, and exact
// delivery accounting for hand-constructed schedules.
#include <gtest/gtest.h>

#include <string>

#include "dsn/analysis/factory.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/trace.hpp"

namespace dsn {
namespace {

TEST(TraceParsing, ParsesAndSorts) {
  const auto trace = parse_injection_trace_text(
      "# comment line\n"
      "100 3 9\n"
      "50 1 2\n"
      "\n"
      "100 4 8\n");
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].cycle, 50u);
  EXPECT_EQ(trace[1].cycle, 100u);
  EXPECT_EQ(trace[1].src, 3u);  // stable order among equal cycles
  EXPECT_EQ(trace[2].src, 4u);
}

/// The PreconditionError message parse_injection_trace_text throws on
/// `text`, or "" when it parses.
std::string trace_error(const std::string& text) {
  try {
    parse_injection_trace_text(text);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return {};
}

TEST(TraceParsing, RejectsGarbage) {
  EXPECT_THROW(parse_injection_trace_text("abc def\n"), PreconditionError);
  EXPECT_THROW(parse_injection_trace_text("1 2\n"), PreconditionError);
  // Extra fields used to be ignored: this parsed as two entries.
  EXPECT_EQ(trace_error("5 0 1 junk\n7 1 0 9 9\n"),
            "malformed trace line 1: 5 0 1 junk (expected \"cycle src dst\")");
  EXPECT_EQ(trace_error("5 0 1\n7 1 0 9 9\n"),
            "malformed trace line 2: 7 1 0 9 9 (expected \"cycle src dst\")");
  // A negative host used to wrap to 4294967295 and be refused later, by the
  // simulator, without its line.
  EXPECT_EQ(trace_error("# cycle src dst\n5 -1 1\n"),
            "malformed trace line 2: 5 -1 1 (expected src as an unsigned decimal)");
  EXPECT_EQ(trace_error("5 0 +1\n"),
            "malformed trace line 1: 5 0 +1 (expected dst as an unsigned decimal)");
  EXPECT_EQ(trace_error("5 4294967296 1\n"),
            "malformed trace line 1: 5 4294967296 1 (expected src <= 4294967295)");
  EXPECT_EQ(trace_error("18446744073709551616 0 1\n"),
            "malformed trace line 1: 18446744073709551616 0 1 (expected cycle <= "
            "18446744073709551615)");
}

TEST(TraceParsing, RoundTrip) {
  const std::vector<TraceEntry> trace{{10, 1, 2}, {20, 3, 4}};
  const auto parsed = parse_injection_trace_text(format_injection_trace(trace));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].cycle, 10u);
  EXPECT_EQ(parsed[1].dst, 4u);
}

TEST(TraceReplay, DeliversExactlyTheScheduledPackets) {
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic unused(16 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2'000;
  cfg.drain_cycles = 30'000;
  cfg.record_packet_traces = true;

  Simulator sim(topo, policy, unused, cfg);
  sim.set_injection_trace({{10, 0, 63}, {10, 5, 40}, {500, 63, 0}, {900, 12, 13}});
  const SimResult res = sim.run();
  ASSERT_TRUE(res.drained);
  EXPECT_EQ(res.packets_measured, 4u);
  EXPECT_EQ(res.packets_delivered, 4u);
  ASSERT_EQ(sim.packet_traces().size(), 4u);
  // Generation cycles match the schedule.
  std::vector<std::uint64_t> gens;
  for (const auto& t : sim.packet_traces()) gens.push_back(t.gen_cycle);
  std::sort(gens.begin(), gens.end());
  EXPECT_EQ(gens, (std::vector<std::uint64_t>{10, 10, 500, 900}));
}

TEST(TraceReplay, DeterministicLatencies) {
  const Topology topo = make_topology_by_name("torus", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic unused(16 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1'000;
  cfg.drain_cycles = 20'000;

  std::vector<TraceEntry> schedule;
  for (std::uint64_t c = 0; c < 500; c += 7) {
    schedule.push_back({c, static_cast<HostId>(c % 64),
                        static_cast<HostId>((c * 13 + 5) % 64)});
  }
  const auto run_once = [&] {
    Simulator sim(topo, policy, unused, cfg);
    sim.set_injection_trace(schedule);
    return sim.run();
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

TEST(TraceReplay, RejectsOutOfRangeHosts) {
  const Topology topo = make_topology_by_name("torus", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic unused(16 * 4);
  Simulator sim(topo, policy, unused, SimConfig{});
  EXPECT_THROW(sim.set_injection_trace({{0, 0, 64}}), PreconditionError);
}

TEST(TraceReplay, BurstToOneHostSerializesOnEjection) {
  // 20 packets arrive simultaneously for one host: the single ejection port
  // must serialize them, so the last packet waits ~20 packet times.
  const Topology topo = make_topology_by_name("torus", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  UniformTraffic unused(16 * 4);
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 60'000;
  cfg.record_packet_traces = true;

  std::vector<TraceEntry> burst;
  for (HostId src = 4; src < 24; ++src) burst.push_back({0, src, 0});
  Simulator sim(topo, policy, unused, cfg);
  sim.set_injection_trace(burst);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.drained);
  EXPECT_EQ(res.packets_delivered, 20u);
  std::uint64_t first = ~0ull, last = 0;
  for (const auto& t : sim.packet_traces()) {
    first = std::min(first, t.eject_cycle);
    last = std::max(last, t.eject_cycle);
  }
  // 20 packets x 33 flits over a one-flit/cycle ejection port. Flits of up
  // to vcs = 4 packets interleave, so the first tail can complete after ~4
  // packet times and the spread is at least (20 - 4) packet times.
  EXPECT_GE(last - first, (20u - 4u) * 33u);
  EXPECT_LE(last - first, 20u * 33u + 200u);
}

}  // namespace
}  // namespace dsn
