// Cross-validation of the flow-level tier against the flit-level simulator
// (the headline gate of the flow tier, `ctest -L crossval`).
//
// Both tiers consume the exact same demand batch — pattern_demands() for the
// six synthetic patterns, expand_all_demands() for the HDFS and shuffle
// workloads — on the same DSN topology with the same routes: DsnRouter with
// default options, the paper's three-phase DSN routing. The flow tier binds
// it through the analyzer (make_route_function(kDsn)); the flit side's
// DsnCustomPolicy calls DsnRouter::step at every switch, which walks
// route() hop for hop (tests/test_sim_routing.cpp checks every ordered pair).
// The flit simulator runs the batch as an injection trace to completion
// (warmup 0, window covering every injection, generous drain; the run exits
// at the makespan), the flow tier runs it as a static batch, and the
// per-host delivered throughput of the two tiers must agree within the
// per-pattern ratio bounds recorded below.
//
// Methodology for the bounds: ratio = flow / flit throughput. The flow tier
// is a fluid relaxation of an ideal fabric — no packetization, no
// buffer/credit stalls, no head-of-line blocking, no adaptive-routing
// detours — so its makespan lower-bounds the flit sim's and the ratio sits
// above 1: under saturation the flit sim delivers a pattern-dependent
// 1/7.7 .. 1/1.7 of the fluid bound (measured ratios 1.68-7.74 across sizes
// and patterns, drifting with n as the share of makespan spent on pipeline
// latency and buffer drain changes). The gate therefore pins the *ratio
// band* per pattern: each band is derived from the ratios measured at
// n in {64, 256, 1024} with the packet counts below, as
// lo = min / 1.45 and hi = max * 1.4, each rounded outward to 0.1 (a
// ~35-40% margin); a ratio outside [lo, hi] means one tier's congestion
// model drifted (e.g. the flow tier stopped honoring a resource class, or
// the flit sim's VC scheduling regressed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/routes.hpp"
#include "dsn/flow/workload.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/demand.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/traffic.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn::flow {
namespace {

// Enough packets that the makespan is drain-dominated rather than
// latency-dominated, but few enough that the saturated flit run fits the
// ctest budget: the flit sim's saturation throughput falls with n, so the
// cycles to drain a fixed per-host backlog (and the single-core wall time
// per cycle) both grow with size.
std::uint32_t packets_per_host(std::uint32_t n) { return n <= 256 ? 16 : 4; }

/// Per-host delivered throughput (flits/cycle) of the flit simulator running
/// `demands` as an injection trace to completion.
double flit_throughput(const Dsn& d, const std::vector<Demand>& demands) {
  SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.offered_gbps_per_host = 0.0;  // trace is the only source
  const std::vector<TraceEntry> trace = to_injection_trace(demands, cfg.packet_flits);
  std::uint64_t last_cycle = 0;
  for (const TraceEntry& e : trace) last_cycle = std::max(last_cycle, e.cycle);
  cfg.measure_cycles = last_cycle + 1;  // every packet is measured
  cfg.drain_cycles = 2'000'000;

  DsnCustomPolicy policy(d);
  UniformTraffic unused(d.topology().num_nodes() * cfg.hosts_per_switch);
  Simulator sim(d.topology(), policy, unused, cfg);
  sim.set_injection_trace(trace);
  const SimResult res = sim.run();
  EXPECT_TRUE(res.drained);
  EXPECT_FALSE(res.deadlock);
  EXPECT_EQ(res.packets_delivered, demands.size());
  const double flits = static_cast<double>(res.packets_delivered) *
                       static_cast<double>(cfg.packet_flits);
  const double hosts = static_cast<double>(d.topology().num_nodes()) * cfg.hosts_per_switch;
  return flits / static_cast<double>(res.cycles_run) / hosts;
}

/// Per-host delivered throughput (flits/cycle) of the flow tier on the same
/// static batch.
double flow_throughput(const Dsn& d, const std::vector<Demand>& demands) {
  FlowConfig cfg;
  // Batch a few completions per water-filling solve: event-exact stepping
  // (the default) solves once per completion, which at n = 1024 is minutes
  // of wall time for an identical throughput figure.
  cfg.min_epoch_cycles = 32;
  FlowSimulator sim(d.topology(), cfg);
  const FlowResult res = sim.run(demands);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.flows_completed, demands.size());
  return res.per_host_flits_per_cycle;
}

double crossval_ratio(std::uint32_t n, const std::string& label,
                      const std::vector<Demand>& demands) {
  const Dsn d(n, dsn_default_x(n));
  const double flit = flit_throughput(d, demands);
  const double flow = flow_throughput(d, demands);
  EXPECT_GT(flit, 0.0) << label;
  EXPECT_GT(flow, 0.0) << label;
  const double ratio = flow / flit;
  std::cout << "[crossval] n=" << n << " " << label << ": flit=" << flit
            << " flow=" << flow << " ratio=" << ratio << "\n";
  return ratio;
}

std::unique_ptr<TrafficPattern> make_pattern(const std::string& name,
                                             std::uint32_t hosts) {
  if (name == "uniform") return std::make_unique<UniformTraffic>(hosts);
  if (name == "bit-reversal") return std::make_unique<BitReversalTraffic>(hosts);
  if (name == "neighboring") return std::make_unique<NeighboringTraffic>(hosts);
  if (name == "transpose") return std::make_unique<TransposeTraffic>(hosts);
  if (name == "shuffle") return std::make_unique<ShuffleTraffic>(hosts);
  return std::make_unique<HotspotTraffic>(hosts, 0, 0.1);
}

struct PatternBounds {
  const char* pattern;
  double lo;  ///< min allowed flow/flit throughput ratio
  double hi;  ///< max allowed flow/flit throughput ratio
};

// The recorded tolerance bounds (see the header comment for methodology).
// Measured flow/flit ratios at n = 64 / 256 / 1024, and the bands derived
// from them; "before" is the flit sim's own DSN routing, which took a
// different path than DsnRouter on up to 34 % of ordered pairs:
//                before                 bands before  now                   bands now
//   uniform      3.49 / 4.59 / 4.16     [2.4, 6.5]    2.54 / 4.38 / 3.11    [1.7, 6.2]
//   bit-reversal 4.75 / 7.00 / 5.10     [3.2, 9.8]    3.22 / 6.50 / 4.24    [2.2, 9.2]
//   neighboring  6.02 / 4.79 / 3.91     [2.6, 8.5]    2.94 / 3.21 / 3.51    [2.0, 5.0]
//   transpose    4.15 / 8.67 / 5.81     [2.8, 12.0]   2.79 / 7.74 / 5.14    [1.9, 10.9]
//   shuffle      3.03 / 2.68 / 2.54     [1.7, 4.4]    3.62 / 2.68 / 2.43    [1.6, 5.1]
//   hotspot      4.35 / 3.23 / 2.95     [2.0, 6.2]    2.98 / 3.12 / 1.68    [1.1, 4.4]
constexpr PatternBounds kPatternBounds[] = {
    {"uniform", 1.7, 6.2},       {"bit-reversal", 2.2, 9.2},
    {"neighboring", 2.0, 5.0},   {"transpose", 1.9, 10.9},
    {"shuffle", 1.6, 5.1},       {"hotspot", 1.1, 4.4},
};

class FlowCrossval : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FlowCrossval, SyntheticPatternsTrackFlitSim) {
  const std::uint32_t n = GetParam();
  const std::uint32_t hosts = 4 * n;
  const SimConfig scfg;
  for (const PatternBounds& b : kPatternBounds) {
    const std::unique_ptr<TrafficPattern> pattern = make_pattern(b.pattern, hosts);
    const std::vector<Demand> demands = pattern_demands(
        *pattern, hosts, packets_per_host(n), scfg.packet_flits, /*seed=*/1);
    const double ratio = crossval_ratio(n, b.pattern, demands);
    EXPECT_GE(ratio, b.lo) << b.pattern << " n=" << n;
    EXPECT_LE(ratio, b.hi) << b.pattern << " n=" << n;
  }
}

TEST_P(FlowCrossval, WorkloadBatchesTrackFlitSim) {
  const std::uint32_t n = GetParam();
  const SimConfig scfg;
  WorkloadParams params;
  params.hosts = 4 * n;
  // Modest participant counts keep the saturated flit run inside the ctest
  // budget at n = 1024 (shuffle emits clients^2 fetches).
  params.clients = std::max(16u, n / 16);
  params.units = 8;
  params.unit_flits = scfg.packet_flits;  // one block = one flit-sim packet
  params.seed = 1;
  // Measured flow/flit ratios at n = 64 / 256 / 1024 (bands as above):
  //   hdfs-read 3.04 / 3.34 / 3.09 -> [2.0, 4.7]  (before: 4.57 / 3.34 / 4.27, [2.3, 6.5])
  //   shuffle   2.59 / 3.17 / 3.53 -> [1.7, 5.0]  (before: 3.17 / 3.38 / 4.09, [2.2, 5.8])
  const struct {
    const char* workload;
    double lo, hi;
  } cases[] = {{"hdfs-read", 2.0, 4.7}, {"shuffle", 1.7, 5.0}};
  for (const auto& c : cases) {
    const std::unique_ptr<WorkloadDriver> driver = make_workload(c.workload, params);
    const std::vector<Demand> demands = expand_all_demands(*driver);
    const double ratio = crossval_ratio(n, c.workload, demands);
    EXPECT_GE(ratio, c.lo) << c.workload << " n=" << n;
    EXPECT_LE(ratio, c.hi) << c.workload << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowCrossval, ::testing::Values(64u, 256u, 1024u));

// The flow tier against the route analyzer, which needs no second
// implementation: both route through analyze::make_route_function for the
// topology's default family. The batch is one demand of F flits per ordered
// switch pair at one host per switch. Without parallel links every channel
// is one arc of 1 flit/cycle, and the analyzer's hottest channel carries
// max_load of the demands, so the makespan is at least max_load x F and the
// delivered flits per cycle per switch at most (n - 1) / max_load, the
// analyzer's throughput_bound. Measured ratios to the bound at n = 64 / 100:
// 1.0000 on every single-class family; 0.88 / 0.73 on dsn-d, whose channel
// classes share links (the bound counts each class apart; per link the
// ratio is 1.0000); 0.76 / 0.76 on torus3d, held at the 1 flit/cycle host
// ports. Left out: dsn-e, whose parallel Up/Extra links pool their capacity
// in the flow tier (1.14 / 1.11 of the per-class bound), and dln, whose flow
// routes (dln-jump) are not the analyzer's up*/down* (1.21 / 1.87).
TEST(FlowAnalyzerOracle, AllPairsBatchWithinThroughputBound) {
  constexpr std::uint64_t kFlits = 64;
  for (const std::uint32_t n : {64u, 100u}) {
    for (const char* family : {"dsn", "dsn-bidir", "dsn-d", "torus", "torus3d", "ring",
                               "random", "random-regular", "kleinberg"}) {
      SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n));
      const Topology topo = make_topology_by_name(family, n);
      const CsrView csr(topo.graph);
      for (NodeId u = 0; u < n; ++u) {
        std::vector<NodeId> nb(csr.neighbors(u).begin(), csr.neighbors(u).end());
        std::sort(nb.begin(), nb.end());
        ASSERT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end())
            << "parallel links at switch " << u;
      }
      const analyze::RoutingFamily routing = analyze::default_family(topo.kind);
      FlowConfig cfg;
      cfg.hosts_per_switch = 1;
      ASSERT_EQ(FlowRoutes(topo, csr, cfg.updown_max_n).mode(), analyze::to_string(routing));
      analyze::RouteAnalysisOptions options;
      options.find_min_cycle = false;
      const analyze::RouteAnalysis ra =
          analyze::analyze_topology_routes(topo, routing, options);
      ASSERT_TRUE(ra.routes_ok());

      std::vector<Demand> batch;
      for (HostId s = 0; s < n; ++s) {
        for (HostId t = 0; t < n; ++t) {
          if (s != t) batch.push_back({s, t, kFlits});
        }
      }
      const FlowResult res = FlowSimulator(topo, cfg).run(batch);
      ASSERT_TRUE(res.converged);
      ASSERT_EQ(res.flows_completed, batch.size());
      const double per_switch = res.aggregate_flits_per_cycle / n;
      std::cout << "[oracle] " << topo.name << ": flow " << per_switch << " bound "
                << ra.load.throughput_bound << " ratio "
                << per_switch / ra.load.throughput_bound << "\n";
      EXPECT_LE(per_switch, ra.load.throughput_bound * (1.0 + 1e-9));
    }
  }
}

}  // namespace
}  // namespace dsn::flow
