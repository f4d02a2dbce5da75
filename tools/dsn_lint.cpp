// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
// dsn-lint: structural invariant checker and routing analyzer for DSN
// topologies.
//
// Legacy (lint) mode lints a topology built by name (any factory the
// analysis layer knows) or loaded from an edge-list file (topology/io
// format), printing one line per violation and a per-topology summary. Exit
// status is the number of topologies with error-severity violations (capped
// at 125), so the tool drops straight into CI pipelines and `ctest`.
//
// Subcommand mode drives the whole-network route analyzer (dsn::analyze):
//   dsn-lint routes ...   all-pairs route proofs: loop freedom, reachability,
//                         analytic hop bounds (--strict enforces the bounds)
//   dsn-lint cdg ...      full channel-dependency-graph acyclicity with a
//                         minimal deadlock-cycle witness when cyclic
//   dsn-lint load ...     static per-channel load (max/mean/Gini) and the
//                         uniform-traffic throughput upper bound 1/max_load
//   dsn-lint drill ...    live fault drill on the flit simulator: down a
//                         link/switch (or flap links) mid-run and verify the
//                         network recovers with exact packet accounting
//   dsn-lint flow ...     run a datacenter workload on the flow-level tier
//                         (max-min fair-share over the analyzer's routes) and
//                         verify convergence, the max-min invariant on every
//                         solve, and that every flow completed
//   dsn-lint optimize ... anneal a topology's shortcut placement with
//                         degree-preserving double-edge swaps and report the
//                         (cable length, ASPL, 1/throughput-bound) Pareto
//                         front under the machine-room cable model
//   dsn-lint stats ...    run an instrumented mini-workload through every
//                         layer (generate / graph / opt / analyze / drill /
//                         flow) and report the dsn::obs metrics registry as a
//                         table or JSON; counters are checked monotone across
//                         stages
// Subcommands exit 0 when every checked property holds, 1 when a property is
// refuted, and 2 on usage or internal errors.
//
// Examples:
//   dsn-lint --topology dsn --n 100 --full
//   dsn-lint --topology all --n-list 64,81,100,128
//   dsn-lint --topology dsn --n-list 48,96 --x-sweep
//   dsn-lint --file out/topology.edges --full
//   dsn-lint routes --topology dsn --x 2 --n 512 --strict
//   dsn-lint cdg --topology dsn-v --n 512 --json
//   dsn-lint load --topology dsn-e --n 512
//   dsn-lint drill --topology dsn-e --n 48 --fail-link auto --heal-at 1500
//   dsn-lint drill --topology dsn --n 64 --fail-switch 7 --ttl 4000 --json
//   dsn-lint flow --topology dsn --n 256 --workload shuffle --json
//   dsn-lint flow --topology random-regular --n 1024 --workload hdfs-write
//   dsn-lint optimize --topology dsn --n 1024 --iterations 2000 --json
//   dsn-lint stats --n 96 --json
//   dsn-lint stats --n 96 --trace stats-trace.json
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/load_bound.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/check/validator.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/table.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/workload.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/io.hpp"

namespace {

/// Every factory name make_topology_by_name accepts, in lint order.
const std::vector<std::string> kAllTopologies = {
    "ring", "torus",  "torus3d", "dln",   "random", "kleinberg",
    "random-regular", "dsn",     "dsn-d", "dsn-e",  "dsn-bidir"};

struct LintStats {
  int checked = 0;
  int failed = 0;
};

void lint_one(const dsn::Topology& topo, const dsn::check::ValidatorOptions& opts,
              bool quiet, LintStats& stats) {
  const dsn::check::ValidationReport report = dsn::check::validate_topology(topo, opts);
  ++stats.checked;
  if (!report.ok()) ++stats.failed;
  if (!report.ok() || !quiet) std::cout << report.summary() << "\n";
}

// ---------------------------------------------------------------------------
// Analyzer subcommands (routes / cdg / load)
// ---------------------------------------------------------------------------

constexpr int kExitClean = 0;
constexpr int kExitViolations = 1;
constexpr int kExitUsage = 2;

struct AnalysisViolation {
  std::string kind;
  std::string message;
};

dsn::analyze::RoutingFamily parse_family(const std::string& name) {
  if (name == "dsn") return dsn::analyze::RoutingFamily::kDsn;
  if (name == "dsn-d") return dsn::analyze::RoutingFamily::kDsnD;
  if (name == "dor") return dsn::analyze::RoutingFamily::kTorusDor;
  if (name == "greedy") return dsn::analyze::RoutingFamily::kGreedyGrid;
  if (name == "updown") return dsn::analyze::RoutingFamily::kUpDown;
  throw dsn::PreconditionError("unknown routing family '" + name +
                               "' (expected dsn, dsn-d, dor, greedy or updown)");
}

/// Build the analysis target named by --topology/--n/--x and run the
/// analyzer. "dsn" is the basic DSN with the single unprotected channel
/// class; "dsn-v" is the same topology with the extended classes realized as
/// virtual channels; "dsn-e" carries them on physical Up/Extra links.
dsn::analyze::RouteAnalysis run_analysis(const dsn::Cli& cli, dsn::Topology& topo) {
  const auto n = static_cast<std::uint32_t>(cli.get_uint("n"));
  auto x = static_cast<std::uint32_t>(cli.get_uint("x"));
  const std::string tname = cli.get("topology");

  if (tname == "dsn" || tname == "dsn-v") {
    if (x == 0) x = dsn::dsn_default_x(n);
    const dsn::Dsn d(n, x);
    topo = d.topology();
    const auto scheme = tname == "dsn-v" ? dsn::analyze::ChannelScheme::kExtended
                                         : dsn::analyze::ChannelScheme::kBasic;
    dsn::analyze::RouteAnalysis ra = dsn::analyze::analyze_dsn_routes(d, scheme);
    if (tname == "dsn-v") ra.topology = "dsn-v-" + std::to_string(n);
    return ra;
  }
  if (tname == "dsn-e") {
    const dsn::DsnE e(n);
    topo = e.topology();
    return dsn::analyze::analyze_topology_routes(topo,
                                                 dsn::analyze::RoutingFamily::kDsn);
  }
  if (tname == "dsn-d") {
    const dsn::DsnD dd(n, x == 0 ? 2 : x);
    topo = dd.topology();
    return dsn::analyze::analyze_dsn_d_routes(dd);
  }
  topo = dsn::make_topology_by_name(tname, n, cli.get_uint("seed"));
  const dsn::analyze::RoutingFamily family =
      cli.get("family").empty() ? dsn::analyze::default_family(topo.kind)
                                : parse_family(cli.get("family"));
  return dsn::analyze::analyze_topology_routes(topo, family);
}

void collect_route_violations(const dsn::analyze::RouteAnalysis& ra, bool strict,
                              std::vector<AnalysisViolation>& out) {
  const auto witness_line = [](const dsn::analyze::RouteWitness& w) {
    return "route (" + std::to_string(w.src) + ", " + std::to_string(w.dst) +
           "): " + w.reason;
  };
  for (const auto& w : ra.loop_witnesses) out.push_back({"route-loop", witness_line(w)});
  for (const auto& w : ra.endpoint_witnesses)
    out.push_back({"route-wrong-endpoint", witness_line(w)});
  if (strict) {
    for (const auto& w : ra.bound_witnesses)
      out.push_back({"route-bound-exceeded",
                     witness_line(w) + " (" + ra.hop_bound_law + ")"});
    if (ra.fallback_routes > 0)
      out.push_back({"route-fallback", std::to_string(ra.fallback_routes) +
                                           " routes hit the defensive fallback"});
  }
}

int run_analysis_command(const std::string& cmd, int argc, const char* const* argv) {
  dsn::Cli cli("dsn-lint " + cmd +
               ": whole-network route analysis (exit 0 = proven clean, 1 = a "
               "property was refuted, 2 = usage/internal error)");
  cli.add_flag("topology", "dsn",
               "analysis target: dsn (basic, single channel class), dsn-v "
               "(extended classes as virtual channels), dsn-e, dsn-d, or any "
               "factory name (ring, torus, torus3d, dln, random, kleinberg, "
               "random-regular, dsn-bidir)");
  cli.add_flag("n", "512", "node count");
  cli.add_flag("x", "0",
               "DSN shortcut-set size (0 = paper default p-1); for dsn-d the "
               "express links per super node (0 = 2)");
  cli.add_flag("family", "",
               "routing family override for factory topologies (dsn, dsn-d, "
               "dor, greedy, updown)");
  cli.add_flag("seed", "1", "seed for the randomized generators");
  cli.add_flag("max-normalized-load", "0",
               "load: fail when max_load/(n-1) exceeds this (0 = report only)");
  cli.add_flag("json", "false", "emit a machine-readable JSON report");
  cli.add_flag("strict", "false",
               "routes: also enforce analytic hop bounds and zero fallbacks");

  if (!cli.parse(argc, argv)) return kExitClean;

  dsn::Topology topo;
  const dsn::analyze::RouteAnalysis ra = run_analysis(cli, topo);
  const bool strict = cli.get_bool("strict");

  std::vector<AnalysisViolation> violations;
  if (cmd == "routes") {
    collect_route_violations(ra, strict, violations);
  } else if (cmd == "cdg") {
    if (!ra.cdg_acyclic) {
      violations.push_back(
          {"cdg-cyclic",
           "channel dependency graph has a directed cycle\n" +
               dsn::analyze::render_cycle_witness(topo, ra.cdg_cycle, ra.scheme)});
    }
  } else {  // load
    const double limit = cli.get_double("max-normalized-load");
    if (limit > 0.0 && ra.load.max_normalized > limit) {
      violations.push_back(
          {"channel-overload",
           "channel " + dsn::analyze::render_channel(topo, ra.load.max_channel,
                                                     ra.scheme) +
               " carries normalized load " + std::to_string(ra.load.max_normalized) +
               " > limit " + std::to_string(limit)});
    }
  }

  if (cli.get_bool("json")) {
    dsn::Json doc = dsn::Json::object();
    doc.set("command", cmd);
    doc.set("strict", strict);
    doc.set("analysis", dsn::analyze::to_json(ra));
    dsn::Json vs = dsn::Json::array();
    for (const AnalysisViolation& v : violations) {
      dsn::Json jv = dsn::Json::object();
      jv.set("kind", v.kind);
      jv.set("message", v.message);
      vs.push_back(std::move(jv));
    }
    doc.set("violations", std::move(vs));
    std::cout << doc.dump(2) << "\n";
  } else {
    if (cmd == "cdg") {
      std::cout << "cdg " << ra.topology << " [scheme=" << to_string(ra.scheme)
                << "]: " << ra.cdg_channels << " channels, " << ra.cdg_dependencies
                << " dependencies: "
                << (ra.cdg_acyclic ? "ACYCLIC (deadlock-free)" : "CYCLIC") << "\n";
    } else if (cmd == "load") {
      std::cout << "load " << ra.topology << " [" << ra.pairs << " pairs over "
                << ra.load.channels << " channels]\n"
                << "  max " << ra.load.max_load << " ("
                << dsn::analyze::render_channel(topo, ra.load.max_channel, ra.scheme)
                << ")\n"
                << "  mean " << ra.load.mean_load << ", gini " << ra.load.gini << "\n"
                << "  normalized max " << ra.load.max_normalized
                << " -> throughput bound " << ra.load.throughput_bound << "\n";
    } else {
      std::cout << dsn::analyze::summary(ra) << "\n";
    }
    for (const AnalysisViolation& v : violations)
      std::cout << "VIOLATION " << v.kind << ": " << v.message << "\n";
    std::cout << "dsn-lint " << cmd << ": "
              << (violations.empty() ? "PASS" : "FAIL") << " (" << violations.size()
              << " violations)\n";
  }
  return violations.empty() ? kExitClean : kExitViolations;
}

// ---------------------------------------------------------------------------
// Fault drill subcommand
// ---------------------------------------------------------------------------

/// A non-ring ("shortcut") link, or link 0 when every link is a ring hop.
dsn::LinkId auto_shortcut_link(const dsn::Topology& topo) {
  const dsn::Graph& g = topo.graph;
  const dsn::NodeId n = g.num_nodes();
  for (dsn::LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    const dsn::NodeId gap = u < v ? v - u : u - v;
    if (gap != 1 && gap != n - 1) return l;
  }
  return 0;
}

int run_drill_command(int argc, const char* const* argv) {
  dsn::Cli cli(
      "dsn-lint drill: deterministic live-fault drill on the flit simulator "
      "(exit 0 = recovered with exact packet accounting, 1 = a recovery "
      "property was refuted, 2 = usage/internal error)");
  cli.add_flag("topology", "dsn",
               "factory name (dsn, dsn-e, dsn-d, dsn-bidir, torus, ring, ...)");
  cli.add_flag("n", "64", "node count");
  cli.add_flag("policy", "adaptive",
               "adaptive (minimal + up*/down* escape), updown, or custom "
               "(DSN three-phase routing; --topology dsn only)");
  cli.add_flag("load", "1.0", "offered load [Gb/s per host]");
  cli.add_flag("seed", "1", "traffic seed (same seed + schedule => same run)");
  cli.add_flag("measure", "2000", "measurement window [cycles]");
  cli.add_flag("drain", "60000", "drain budget after the window [cycles]");
  cli.add_flag("fail-link", "auto",
               "link to down at --fail-at: a link id, 'auto' (first shortcut "
               "link), or 'none'");
  cli.add_flag("fail-at", "500", "cycle of the link-down event");
  cli.add_flag("heal-at", "0", "cycle of the link repair (0 = never heals)");
  cli.add_flag("fail-switch", "none", "switch to halt: a node id or 'none'");
  cli.add_flag("switch-fail-at", "800", "cycle of the switch halt");
  cli.add_flag("switch-heal-at", "0", "cycle of the switch revival (0 = never)");
  cli.add_flag("flap-prob", "0",
               "per-interval Bernoulli link-flap probability (0 = no flapping)");
  cli.add_flag("flap-interval", "400", "flap model check interval [cycles]");
  cli.add_flag("flap-repair", "1500", "flap model repair time [cycles]");
  cli.add_flag("epoch", "500", "degradation-curve bucket width [cycles] (0 = off)");
  cli.add_flag("ttl", "0",
               "packet time-to-live [cycles] (0 = off; required for switch "
               "faults that never heal)");
  cli.add_flag("retries", "8", "max per-packet fault retries before dropping");
  cli.add_flag("no-recovery", "false",
               "negative control: neither rebuild routing nor retry on faults");
  cli.add_flag("json", "false", "emit the degradation curve as JSON");

  if (!cli.parse(argc, argv)) return kExitClean;

  const auto n = static_cast<std::uint32_t>(cli.get_uint("n"));
  const std::string tname = cli.get("topology");
  const std::string pname = cli.get("policy");

  // Keep whichever routing substrate the policy needs alive for the run.
  dsn::Topology topo;
  std::unique_ptr<dsn::Dsn> dsn_struct;
  std::unique_ptr<dsn::SimRouting> routing;
  std::unique_ptr<dsn::SimRoutingPolicy> policy;
  if (pname == "custom") {
    if (tname != "dsn") {
      std::cerr << "dsn-lint drill: --policy custom requires --topology dsn\n";
      return kExitUsage;
    }
    dsn_struct = std::make_unique<dsn::Dsn>(n, dsn::dsn_default_x(n));
    topo = dsn_struct->topology();
    policy = std::make_unique<dsn::DsnCustomPolicy>(*dsn_struct);
  } else {
    topo = dsn::make_topology_by_name(tname, n, cli.get_uint("seed"));
    routing = std::make_unique<dsn::SimRouting>(topo);
    if (pname == "adaptive") {
      policy = std::make_unique<dsn::AdaptiveUpDownPolicy>(*routing, 4);
    } else if (pname == "updown") {
      policy = std::make_unique<dsn::UpDownOnlyPolicy>(*routing, 4);
    } else {
      std::cerr << "dsn-lint drill: unknown policy '" << pname << "'\n";
      return kExitUsage;
    }
  }

  dsn::SimConfig cfg;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = cli.get_uint("measure");
  cfg.drain_cycles = cli.get_uint("drain");
  cfg.offered_gbps_per_host = cli.get_double("load");
  cfg.seed = cli.get_uint("seed");
  cfg.epoch_cycles = cli.get_uint("epoch");
  cfg.packet_ttl_cycles = cli.get_uint("ttl");
  cfg.max_retries = static_cast<std::uint32_t>(cli.get_uint("retries"));
  if (cli.get_bool("no-recovery")) {
    cfg.rebuild_routing_on_fault = false;
    cfg.retry_on_fault = false;
  }

  dsn::FaultSchedule schedule;
  const std::string fail_link = cli.get("fail-link");
  if (fail_link != "none") {
    const dsn::LinkId victim = fail_link == "auto"
                                   ? auto_shortcut_link(topo)
                                   : static_cast<dsn::LinkId>(std::stoul(fail_link));
    schedule.link_down(cli.get_uint("fail-at"), victim);
    if (cli.get_uint("heal-at") != 0) schedule.link_up(cli.get_uint("heal-at"), victim);
  }
  const std::string fail_switch = cli.get("fail-switch");
  if (fail_switch != "none") {
    const auto victim = static_cast<dsn::NodeId>(std::stoul(fail_switch));
    schedule.switch_down(cli.get_uint("switch-fail-at"), victim);
    if (cli.get_uint("switch-heal-at") != 0)
      schedule.switch_up(cli.get_uint("switch-heal-at"), victim);
  }
  const double flap_prob = cli.get_double("flap-prob");
  if (flap_prob > 0.0) {
    const dsn::FaultSchedule flaps = dsn::make_link_flap_schedule(
        topo, flap_prob, cli.get_uint("flap-interval"), cli.get_uint("flap-repair"),
        cfg.measure_cycles, cli.get_uint("seed"));
    for (const dsn::FaultEvent& ev : flaps.events()) schedule.add(ev);
  }

  dsn::UniformTraffic traffic(topo.num_nodes() * cfg.hosts_per_switch);
  dsn::Simulator sim(topo, *policy, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const dsn::SimResult res = sim.run();

  std::vector<AnalysisViolation> violations;
  if (res.deadlock)
    violations.push_back({"sim-deadlock", "watchdog fired: no progress with flits in flight"});
  if (!res.conservation_ok)
    violations.push_back(
        {"packet-conservation",
         "generated != delivered + dropped + in-flight at drain (unaccounted packets)"});
  if (!res.drained && !res.deadlock)
    violations.push_back({"not-drained",
                          "measured packets neither delivered nor dropped within the "
                          "drain budget"});
  for (const dsn::FaultRecord& rec : res.fault_log) {
    const bool down = rec.event.kind == dsn::FaultKind::kLinkDown ||
                      rec.event.kind == dsn::FaultKind::kSwitchDown;
    if (down && !rec.reconnected) {
      violations.push_back(
          {"no-reconnect", std::string(dsn::fault_kind_name(rec.event.kind)) + " " +
                               std::to_string(rec.event.id) + " at cycle " +
                               std::to_string(rec.event.cycle) +
                               ": no packet delivered afterwards"});
    }
  }

  if (cli.get_bool("json")) {
    dsn::Json doc = dsn::Json::object();
    doc.set("command", "drill");
    doc.set("topology", tname + "-" + std::to_string(n));
    doc.set("policy", policy->name());
    doc.set("schedule_events", static_cast<std::uint64_t>(schedule.size()));
    doc.set("result", dsn::to_json(res));
    doc.set("degradation_curve", dsn::degradation_curve_json(res));
    dsn::Json vs = dsn::Json::array();
    for (const AnalysisViolation& v : violations) {
      dsn::Json jv = dsn::Json::object();
      jv.set("kind", v.kind);
      jv.set("message", v.message);
      vs.push_back(std::move(jv));
    }
    doc.set("violations", std::move(vs));
    std::cout << doc.dump(2) << "\n";
  } else {
    std::cout << "drill " << tname << "-" << n << " [policy=" << policy->name()
              << ", " << schedule.size() << " fault events]\n"
              << "  generated " << res.packets_generated_total << ", delivered "
              << res.packets_delivered_total << ", dropped " << res.packets_dropped
              << " (ttl " << res.packets_dropped_ttl << "), retried "
              << res.packets_retried << ", in flight at end "
              << res.packets_in_flight_at_end << "\n"
              << "  flits dropped " << res.flits_dropped << ", routing rebuilds "
              << res.routing_rebuilds << ", cycles " << res.cycles_run << "\n";
    for (const dsn::FaultRecord& rec : res.fault_log) {
      std::cout << "  event " << dsn::fault_kind_name(rec.event.kind) << " "
                << rec.event.id << " @" << rec.event.cycle << ": requeued "
                << rec.packets_requeued << ", dropped " << rec.packets_dropped;
      if (rec.reconnected)
        std::cout << ", reconnected in " << rec.reconnect_cycles << " cycles";
      std::cout << "\n";
    }
    for (const AnalysisViolation& v : violations)
      std::cout << "VIOLATION " << v.kind << ": " << v.message << "\n";
    std::cout << "dsn-lint drill: " << (violations.empty() ? "PASS" : "FAIL") << " ("
              << violations.size() << " violations)\n";
  }
  return violations.empty() ? kExitClean : kExitViolations;
}

// ---------------------------------------------------------------------------
// Flow-tier subcommand
// ---------------------------------------------------------------------------

int run_flow_command(int argc, const char* const* argv) {
  dsn::Cli cli(
      "dsn-lint flow: run a datacenter workload on the flow-level simulation "
      "tier and verify it (exit 0 = converged, max-min invariant held on "
      "every solve and all flows completed; 1 = a property was refuted, 2 = "
      "usage/internal error)");
  cli.add_flag("topology", "dsn",
               "factory name (dsn, dsn-d, dln, random-regular, torus, ...)");
  cli.add_flag("n", "256", "switch count");
  cli.add_flag("workload", "shuffle",
               "hdfs-read, hdfs-write, shuffle, allreduce-ring, "
               "allreduce-tree or rebuild");
  cli.add_flag("clients", "16", "workload participants");
  cli.add_flag("units", "8", "work units per participant (blocks, fetches, ...)");
  cli.add_flag("unit-flits", "256", "flits per work unit");
  cli.add_flag("window", "4", "concurrent flows per participant");
  cli.add_flag("rack-hosts", "32", "hosts per rack for replica placement");
  cli.add_flag("hosts-per-switch", "4", "hosts attached to each switch");
  cli.add_flag("seed", "1", "seed for placement and the randomized generators");
  cli.add_flag("min-epoch", "1",
               "epoch floor in cycles (batches completions per solve; 1 = "
               "exact event stepping)");
  cli.add_flag("shards", "0", "solver shard count (0 = auto; result-invariant)");
  cli.add_flag("no-verify", "false",
               "skip the per-solve max-min invariant check (faster)");
  cli.add_flag("json", "false", "emit a machine-readable JSON report");

  if (!cli.parse(argc, argv)) return kExitClean;

  const auto n = static_cast<std::uint32_t>(cli.get_uint("n"));
  const dsn::Topology topo =
      dsn::make_topology_by_name(cli.get("topology"), n, cli.get_uint("seed"));

  dsn::flow::FlowConfig cfg;
  cfg.hosts_per_switch = static_cast<std::uint32_t>(cli.get_uint("hosts-per-switch"));
  cfg.min_epoch_cycles = cli.get_uint("min-epoch");
  cfg.shards = static_cast<std::uint32_t>(cli.get_uint("shards"));
  cfg.verify = !cli.get_bool("no-verify");
  dsn::flow::FlowSimulator sim(topo, cfg);

  dsn::flow::WorkloadParams params;
  params.hosts = sim.num_hosts();
  params.rack_hosts = static_cast<std::uint32_t>(cli.get_uint("rack-hosts"));
  params.clients = static_cast<std::uint32_t>(cli.get_uint("clients"));
  params.units = static_cast<std::uint32_t>(cli.get_uint("units"));
  params.unit_flits = cli.get_uint("unit-flits");
  params.window = static_cast<std::uint32_t>(cli.get_uint("window"));
  params.seed = cli.get_uint("seed");
  const std::unique_ptr<dsn::flow::WorkloadDriver> driver =
      dsn::flow::make_workload(cli.get("workload"), params);

  const dsn::flow::FlowResult res = sim.run(*driver);

  std::vector<AnalysisViolation> violations;
  if (!res.converged)
    violations.push_back({"flow-not-converged",
                          "a water-filling solve or the epoch loop hit its "
                          "iteration ceiling, or a flow had rate zero"});
  if (res.verify_violations > 0)
    violations.push_back({"max-min-violated",
                          std::to_string(res.verify_violations) +
                              " invariant findings; first: " + res.verify_first});
  if (res.flows_completed != res.flows)
    violations.push_back({"flows-unfinished",
                          std::to_string(res.flows - res.flows_completed) + " of " +
                              std::to_string(res.flows) + " flows never completed"});

  if (cli.get_bool("json")) {
    dsn::Json doc = dsn::Json::object();
    doc.set("command", "flow");
    doc.set("result", dsn::flow::to_json(res));
    dsn::Json vs = dsn::Json::array();
    for (const AnalysisViolation& v : violations) {
      dsn::Json jv = dsn::Json::object();
      jv.set("kind", v.kind);
      jv.set("message", v.message);
      vs.push_back(std::move(jv));
    }
    doc.set("violations", std::move(vs));
    std::cout << doc.dump(2) << "\n";
  } else {
    std::cout << "flow " << res.topology << " [routes=" << res.route_mode
              << ", workload=" << res.workload << ", " << res.hosts << " hosts]\n"
              << "  flows " << res.flows << " (completed " << res.flows_completed
              << "), flits " << res.flits_total << "\n"
              << "  epochs " << res.epochs << ", water-filling rounds max "
              << res.max_waterfill_rounds << " total " << res.waterfill_rounds_total
              << "\n"
              << "  makespan " << res.makespan_cycles << " cycles, per-host "
              << res.per_host_flits_per_cycle << " flits/cycle ("
              << res.per_host_gbps << " Gb/s), avg fct " << res.avg_fct_cycles
              << "\n";
    for (const AnalysisViolation& v : violations)
      std::cout << "VIOLATION " << v.kind << ": " << v.message << "\n";
    std::cout << "dsn-lint flow: " << (violations.empty() ? "PASS" : "FAIL") << " ("
              << violations.size() << " violations)\n";
  }
  return violations.empty() ? kExitClean : kExitViolations;
}

// ---------------------------------------------------------------------------
// Shortcut-placement optimizer subcommand
// ---------------------------------------------------------------------------

int run_optimize_command(int argc, const char* const* argv) {
  dsn::Cli cli(
      "dsn-lint optimize: anneal a topology's shortcut placement with "
      "degree-preserving double-edge swaps and report the (cable length, "
      "ASPL, 1/throughput-bound) Pareto front under the machine-room cable "
      "model (exit 0 = optimizer ran and the front is consistent, 1 = a "
      "front/estimator check failed, 2 = usage/internal error)");
  cli.add_flag("topology", "dsn",
               "factory name with shortcut links (dsn, dln, random, dsn-bidir, ...)");
  cli.add_flag("n", "256", "switch count");
  cli.add_flag("seed", "1", "annealing seed (also the generator seed)");
  cli.add_flag("passes", "3", "annealing passes (restarts with cycled weights)");
  cli.add_flag("iterations", "2000", "swap proposals per pass");
  cli.add_flag("plateau", "100", "proposals per temperature step");
  cli.add_flag("sample-sources", "0",
               "estimator BFS sources (0 = auto: exact when n <= 1024, else 128)");
  cli.add_flag("json", "false", "emit a machine-readable JSON report");

  if (!cli.parse(argc, argv)) return kExitClean;

  const auto n = static_cast<std::uint32_t>(cli.get_uint("n"));
  const dsn::Topology topo =
      dsn::make_topology_by_name(cli.get("topology"), n, cli.get_uint("seed"));

  dsn::opt::OptimizerConfig cfg;
  cfg.seed = cli.get_uint("seed");
  cfg.passes = static_cast<std::uint32_t>(cli.get_uint("passes"));
  cfg.iterations = static_cast<std::uint32_t>(cli.get_uint("iterations"));
  cfg.plateau = static_cast<std::uint32_t>(cli.get_uint("plateau"));
  cfg.estimator.sample_sources =
      static_cast<std::uint32_t>(cli.get_uint("sample-sources"));
  const dsn::opt::OptimizerResult res = dsn::opt::optimize_shortcuts(topo, cfg);

  // Independent view of the seed placement through the shared analysis-layer
  // load bound, over the same sampled sources the optimizer used.
  const dsn::CsrView seed_csr(topo.graph);
  const std::vector<dsn::NodeId> sources =
      dsn::sample_sources(n, res.sample_sources, cfg.estimator.seed);
  const dsn::analyze::TreeLoadBound seed_bound =
      dsn::analyze::compute_tree_load_bound(seed_csr, sources);

  std::vector<AnalysisViolation> violations;
  if (res.front.empty()) {
    violations.push_back({"front-empty", "Pareto archive lost the seed point"});
  }
  for (std::size_t i = 1; i < res.front.size(); ++i) {
    if (res.front[i].cable_m <= res.front[i - 1].cable_m ||
        res.front[i].aspl >= res.front[i - 1].aspl) {
      violations.push_back(
          {"front-not-monotone",
           "front[" + std::to_string(i) + "] does not trade strictly more "
           "cable for strictly less ASPL"});
    }
  }
  const bool covers_seed =
      std::any_of(res.front.begin(), res.front.end(), [&](const auto& p) {
        return p.cable_m <= res.seed_point.cable_m &&
               p.aspl <= res.seed_point.aspl;
      });
  if (!covers_seed) {
    violations.push_back({"front-worse-than-seed",
                          "no front point is at least as good as the seed "
                          "placement in both cable and ASPL"});
  }
  // The optimizer's seed estimate and the analyzer's bound run the same
  // tree sweep over the same sources; any gap means the estimator's view or
  // the bound's normalization diverged.
  if (std::abs(res.seed_point.max_normalized_load - seed_bound.max_normalized) >
      1e-12) {
    violations.push_back(
        {"estimator-bound-mismatch",
         "optimizer seed max_normalized_load " +
             std::to_string(res.seed_point.max_normalized_load) +
             " != analysis tree-load bound " +
             std::to_string(seed_bound.max_normalized)});
  }

  if (cli.get_bool("json")) {
    dsn::Json doc = dsn::Json::object();
    doc.set("command", "optimize");
    doc.set("result", dsn::opt::optimizer_result_to_json(res));
    doc.set("seed_load_bound", dsn::analyze::to_json(seed_bound));
    dsn::Json vs = dsn::Json::array();
    for (const AnalysisViolation& v : violations) {
      dsn::Json jv = dsn::Json::object();
      jv.set("kind", v.kind);
      jv.set("message", v.message);
      vs.push_back(std::move(jv));
    }
    doc.set("violations", std::move(vs));
    std::cout << doc.dump(2) << "\n";
  } else {
    std::cout << "optimize " << res.topology << " [n=" << res.n << ", "
              << res.shortcuts << " shortcut slots, degree "
              << res.degree_min << ".." << res.degree_max << ", "
              << res.sample_sources << " sampled sources]\n"
              << "  seed   cable " << res.seed_point.cable_m << " m, aspl "
              << res.seed_point.aspl << ", throughput bound "
              << res.seed_point.throughput_bound << "\n"
              << "  front  " << res.front.size() << " points (archive "
              << res.archive_size << "): ";
    for (std::size_t i = 0; i < res.front.size(); ++i) {
      if (i != 0) std::cout << " | ";
      std::cout << res.front[i].cable_m << "m@" << res.front[i].aspl;
    }
    std::cout << "\n  moves  " << res.proposals << " proposals, "
              << res.accepted << " accepted, " << res.invalid << " invalid, "
              << res.full_sweeps << " full sweeps\n"
              << "  best   cable " << res.best_cable_m_at_seed_aspl
              << " m at aspl <= seed (" << res.cable_saved_pct << "% saved, "
              << (res.beats_seed ? "beats seed" : "does not beat seed")
              << "), best aspl " << res.best_aspl << "\n";
    for (const AnalysisViolation& v : violations)
      std::cout << "VIOLATION " << v.kind << ": " << v.message << "\n";
    std::cout << "dsn-lint optimize: " << (violations.empty() ? "PASS" : "FAIL")
              << " (" << violations.size() << " violations)\n";
  }
  return violations.empty() ? kExitClean : kExitViolations;
}

// ---------------------------------------------------------------------------
// Observability stats subcommand
// ---------------------------------------------------------------------------

#if DSN_OBS
/// One metrics snapshot as ordered JSON (registration order, so reports diff
/// cleanly run to run).
dsn::Json snapshot_to_json(const dsn::obs::Snapshot& snap) {
  dsn::Json metrics = dsn::Json::array();
  for (const dsn::obs::MetricSnapshot& m : snap.metrics) {
    dsn::Json jm = dsn::Json::object();
    jm.set("name", m.name);
    jm.set("kind", dsn::obs::to_string(m.kind));
    switch (m.kind) {
      case dsn::obs::MetricKind::kCounter:
        jm.set("value", m.value);
        break;
      case dsn::obs::MetricKind::kGauge:
        jm.set("value", m.gauge_value);
        jm.set("max", m.gauge_max);
        break;
      case dsn::obs::MetricKind::kHistogram: {
        jm.set("count", m.hist_count);
        jm.set("sum", m.hist_sum);
        dsn::Json bounds = dsn::Json::array();
        for (const std::uint64_t b : m.bounds) bounds.push_back(dsn::Json(b));
        jm.set("bounds", std::move(bounds));
        dsn::Json buckets = dsn::Json::array();
        for (const std::uint64_t c : m.bucket_counts) buckets.push_back(dsn::Json(c));
        jm.set("buckets", std::move(buckets));
        break;
      }
    }
    metrics.push_back(std::move(jm));
  }
  return metrics;
}
#endif  // DSN_OBS

int run_stats_command(int argc, const char* const* argv) {
  dsn::Cli cli(
      "dsn-lint stats: drive an instrumented mini-workload through every "
      "layer (generate -> graph -> opt -> analyze -> drill -> flow) and report "
      "the dsn::obs metrics registry (exit 0 = instrumentation present and "
      "consistent, 1 = a metric is missing or a counter regressed, 2 = "
      "usage/internal error)");
  cli.add_flag("n", "96", "node count of the workload topology");
  cli.add_flag("seed", "1", "traffic seed for the drill stage");
  cli.add_flag("json", "false", "emit a machine-readable JSON report");
  cli.add_flag("trace", "",
               "also capture a Chrome-trace JSON of the workload to this file");

  if (!cli.parse(argc, argv)) return kExitClean;

#if !DSN_OBS
  std::cerr << "dsn-lint stats: this binary was built with DSN_OBS=0; "
               "instrumentation call sites are compiled out\n";
  return kExitUsage;
#else
  const auto n = static_cast<std::uint32_t>(cli.get_uint("n"));
  dsn::obs::set_metrics_enabled(true);
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) dsn::obs::start_trace();

  // Each stage exercises one layer's instrumentation (the flow tier last);
  // the cumulative snapshot after each stage is kept so counters can be
  // proven monotone.
  std::vector<std::pair<std::string, dsn::obs::Snapshot>> stages;
  auto& registry = dsn::obs::MetricsRegistry::global();

  const dsn::Dsn d(n, dsn::dsn_default_x(n));
  stages.emplace_back("generate", registry.snapshot());

  // Route a token task through the pool's worker queue: parallel_for runs
  // inline on single-core hosts (and under nested parallelism), which would
  // leave the dsn.pool.* instrumentation unregistered there.
  dsn::ThreadPool::global().submit([] {});
  dsn::ThreadPool::global().wait_idle();

  const dsn::CsrView csr(d.topology().graph);
  (void)dsn::compute_path_stats(csr);
  (void)dsn::eccentricities(csr);
  stages.emplace_back("graph", registry.snapshot());

  // Opt stage: a short annealing run on the same instance exercises the
  // optimizer's proposal/accept/sweep counters and plateau timer.
  {
    dsn::opt::OptimizerConfig ocfg;
    ocfg.seed = cli.get_uint("seed");
    ocfg.passes = 1;
    ocfg.iterations = 60;
    ocfg.plateau = 20;
    (void)dsn::opt::optimize_shortcuts(d.topology(), ocfg);
  }
  stages.emplace_back("opt", registry.snapshot());

  (void)dsn::analyze::analyze_dsn_routes(d, dsn::analyze::ChannelScheme::kBasic);
  stages.emplace_back("analyze", registry.snapshot());

  // Drill stage: the three-phase custom policy on the same DSN instance with
  // a healed shortcut failure, so per-phase hop counters and the fault
  // recovery path both run.
  {
    dsn::DsnCustomPolicy policy(d);
    dsn::SimConfig cfg;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1000;
    cfg.drain_cycles = 30000;
    cfg.seed = cli.get_uint("seed");
    cfg.packet_ttl_cycles = 4000;
    dsn::FaultSchedule schedule;
    const dsn::LinkId victim = auto_shortcut_link(d.topology());
    schedule.link_down(300, victim);
    schedule.link_up(900, victim);
    dsn::UniformTraffic traffic(d.topology().num_nodes() * cfg.hosts_per_switch);
    dsn::Simulator sim(d.topology(), policy, traffic, cfg);
    sim.set_fault_schedule(schedule);
    (void)sim.run();
  }
  stages.emplace_back("drill", registry.snapshot());

  // Flow stage: a small shuffle on the same node count exercises the
  // flow-tier instrumentation (admissions, epochs, water-filling rounds).
  {
    dsn::flow::FlowConfig fcfg;
    fcfg.verify = true;
    dsn::flow::FlowSimulator fsim(d.topology(), fcfg);
    dsn::flow::WorkloadParams params;
    params.hosts = fsim.num_hosts();
    params.clients = 8;
    params.units = 4;
    params.unit_flits = 64;
    params.seed = cli.get_uint("seed");
    const std::unique_ptr<dsn::flow::WorkloadDriver> driver =
        dsn::flow::make_workload("shuffle", params);
    (void)fsim.run(*driver);
  }
  stages.emplace_back("flow", registry.snapshot());

  if (!trace_path.empty()) dsn::obs::stop_trace(trace_path);
  const dsn::obs::Snapshot& final_snap = stages.back().second;

  // Self-checks: the canonical per-layer metrics must exist, and every
  // counter must be monotone across the stage snapshots (the sharded-merge
  // discipline guarantees it; a regression means torn reads or id misuse).
  std::vector<AnalysisViolation> violations;
  for (const char* required :
       {"dsn.topology.generated", "dsn.topology.shortcuts",
        "dsn.graph.msbfs_batches", "dsn.analysis.routes_checked",
        "dsn.pool.tasks_executed", "dsn.sim.hops", "dsn.sim.hops.main",
        "dsn.sim.packet_latency_cycles", "dsn.flow.flows",
        "dsn.flow.flows_completed", "dsn.flow.epochs",
        "dsn.flow.waterfill_rounds", "dsn.flow.fct_cycles",
        "dsn.opt.proposals", "dsn.opt.accepts", "dsn.opt.full_sweeps",
        "dsn.opt.plateau_ns", "dsn.opt.plateaus"}) {
    if (final_snap.find(required) == nullptr) {
      violations.push_back({"metric-missing",
                            std::string("expected metric '") + required +
                                "' was never registered by the workload"});
    }
  }
  for (std::size_t s = 1; s < stages.size(); ++s) {
    for (const dsn::obs::MetricSnapshot& m : stages[s].second.metrics) {
      if (m.kind != dsn::obs::MetricKind::kCounter) continue;
      const dsn::obs::MetricSnapshot* prev = stages[s - 1].second.find(m.name);
      if (prev != nullptr && prev->value > m.value) {
        violations.push_back(
            {"counter-regression",
             m.name + " fell from " + std::to_string(prev->value) + " to " +
                 std::to_string(m.value) + " between stage '" +
                 stages[s - 1].first + "' and '" + stages[s].first + "'"});
      }
    }
  }

  if (cli.get_bool("json")) {
    dsn::Json doc = dsn::Json::object();
    doc.set("command", "stats");
    doc.set("topology", "dsn-" + std::to_string(n));
    doc.set("obs_enabled", true);
    dsn::Json jstages = dsn::Json::array();
    for (const auto& [name, snap] : stages) {
      dsn::Json js = dsn::Json::object();
      js.set("stage", name);
      js.set("metrics", snapshot_to_json(snap));
      jstages.push_back(std::move(js));
    }
    doc.set("stages", std::move(jstages));
    doc.set("metrics", snapshot_to_json(final_snap));
    dsn::Json vs = dsn::Json::array();
    for (const AnalysisViolation& v : violations) {
      dsn::Json jv = dsn::Json::object();
      jv.set("kind", v.kind);
      jv.set("message", v.message);
      vs.push_back(std::move(jv));
    }
    doc.set("violations", std::move(vs));
    std::cout << doc.dump(2) << "\n";
  } else {
    dsn::Table table({"metric", "kind", "value", "max/sum"});
    for (const dsn::obs::MetricSnapshot& m : final_snap.metrics) {
      auto& row = table.row().cell(m.name).cell(dsn::obs::to_string(m.kind));
      switch (m.kind) {
        case dsn::obs::MetricKind::kCounter:
          row.cell(m.value).cell("");
          break;
        case dsn::obs::MetricKind::kGauge:
          row.cell(m.gauge_value).cell(std::to_string(m.gauge_max));
          break;
        case dsn::obs::MetricKind::kHistogram:
          row.cell(m.hist_count).cell(std::to_string(m.hist_sum));
          break;
      }
    }
    table.print(std::cout,
                "dsn::obs metrics after generate/graph/opt/analyze/drill/flow "
                "(dsn-" +
                    std::to_string(n) + ")");
    for (const AnalysisViolation& v : violations)
      std::cout << "VIOLATION " << v.kind << ": " << v.message << "\n";
    std::cout << "dsn-lint stats: " << (violations.empty() ? "PASS" : "FAIL")
              << " (" << violations.size() << " violations)\n";
  }
  return violations.empty() ? kExitClean : kExitViolations;
#endif  // DSN_OBS
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "routes" || cmd == "cdg" || cmd == "load") {
      try {
        // Shift argv so the subcommand name acts as the program name.
        return run_analysis_command(cmd, argc - 1, argv + 1);
      } catch (const std::exception& e) {
        std::cerr << "dsn-lint " << cmd << ": " << e.what() << "\n";
        return kExitUsage;
      }
    }
    if (cmd == "drill") {
      try {
        return run_drill_command(argc - 1, argv + 1);
      } catch (const std::exception& e) {
        std::cerr << "dsn-lint drill: " << e.what() << "\n";
        return kExitUsage;
      }
    }
    if (cmd == "flow") {
      try {
        return run_flow_command(argc - 1, argv + 1);
      } catch (const std::exception& e) {
        std::cerr << "dsn-lint flow: " << e.what() << "\n";
        return kExitUsage;
      }
    }
    if (cmd == "optimize") {
      try {
        return run_optimize_command(argc - 1, argv + 1);
      } catch (const std::exception& e) {
        std::cerr << "dsn-lint optimize: " << e.what() << "\n";
        return kExitUsage;
      }
    }
    if (cmd == "stats") {
      try {
        return run_stats_command(argc - 1, argv + 1);
      } catch (const std::exception& e) {
        std::cerr << "dsn-lint stats: " << e.what() << "\n";
        return kExitUsage;
      }
    }
  }

  dsn::Cli cli(
      "dsn-lint: run the dsn::check invariant battery over topologies and "
      "report violations");
  cli.add_flag("topology", "all",
               "factory name (ring, torus, torus3d, dln, random, kleinberg, "
               "random-regular, dsn, dsn-d, dsn-e, dsn-bidir) or 'all'");
  cli.add_flag("n", "64", "node count when --n-list is not given");
  cli.add_flag("n-list", "", "comma-separated node counts to sweep");
  cli.add_flag("x-sweep", "false",
               "for --topology dsn: lint every legal shortcut-set size x in [1, p-1]");
  cli.add_flag("seed", "1", "seed for the randomized generators");
  cli.add_flag("file", "", "lint an edge-list file instead of generating");
  cli.add_flag("full", "false",
               "also run routing-consistency and CDG-acyclicity checks");
  cli.add_flag("quiet", "false", "print only failing topologies");

  try {
    if (!cli.parse(argc, argv)) return 0;

    dsn::check::ValidatorOptions opts = dsn::check::structural_options();
    if (cli.get_bool("full")) opts = dsn::check::ValidatorOptions{};
    const bool quiet = cli.get_bool("quiet");
    LintStats stats;

    if (!cli.get("file").empty()) {
      std::ifstream in(cli.get("file"));
      if (!in) {
        std::cerr << "dsn-lint: cannot open " << cli.get("file") << "\n";
        return 125;
      }
      lint_one(dsn::read_edge_list(in), opts, quiet, stats);
    } else {
      const std::string which = cli.get("topology");
      std::vector<std::uint64_t> sizes = cli.get_uint_list("n-list");
      if (sizes.empty()) sizes.push_back(cli.get_uint("n"));
      const auto seed = cli.get_uint("seed");

      std::vector<std::string> names;
      if (which == "all") {
        names = kAllTopologies;
      } else {
        // Reject typos up front: an unknown name must not exit 0 as if the
        // sweep had merely skipped an unrealizable size.
        if (std::find(kAllTopologies.begin(), kAllTopologies.end(), which) ==
            kAllTopologies.end()) {
          std::cerr << "dsn-lint: unknown topology '" << which << "'\n";
          return 125;
        }
        names.push_back(which);
      }

      for (const std::uint64_t size : sizes) {
        const auto n = static_cast<std::uint32_t>(size);
        for (const std::string& name : names) {
          try {
            if (name == "dsn" && cli.get_bool("x-sweep")) {
              const std::uint32_t p = dsn::ilog2_ceil(n);
              for (std::uint32_t x = 1; x + 1 <= p; ++x)
                lint_one(dsn::make_dsn(n, x), opts, quiet, stats);
            } else {
              lint_one(dsn::make_topology_by_name(name, n, seed), opts, quiet, stats);
            }
          } catch (const dsn::PreconditionError& e) {
            // A size this family cannot realize (e.g. kleinberg needs square
            // n) is a skip, not a lint failure.
            if (!quiet)
              std::cout << name << " n=" << n << ": skipped (" << e.what() << ")\n";
          }
        }
      }
    }

    if (!quiet || stats.failed > 0) {
      std::cout << "dsn-lint: " << stats.checked << " topologies checked, "
                << stats.failed << " failed\n";
    }
    return stats.failed > 125 ? 125 : stats.failed;
  } catch (const std::exception& e) {
    std::cerr << "dsn-lint: " << e.what() << "\n";
    return 125;
  }
}
