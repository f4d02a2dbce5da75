// Microbenchmark for the flow-level simulation tier (dsn/flow): wall time
// and simulated flows per second for datacenter workloads across topology
// families and sizes, up to the million-host scale point the flit simulator
// cannot reach (262144 switches x 4 hosts = 1048576 hosts).
//
// Emits a JSON report (stdout, and --json <path>) whose shape is tracked in
// BENCH_flow.json at the repository root — the committed scale trajectory
// future PRs regress against (ci/check_bench_flow.py gates the shape, the
// million-host row, convergence and the water-filling round ceiling, not the
// absolute timings). Run with no arguments to reproduce the committed
// configuration:
//
//   build/bench/micro_flow --json BENCH_flow.json
//
// Rows with n <= --verify-max-n run with the per-solve max-min invariant
// check enabled and carry a "check" field; any violation fails the bench
// (exit 1), so CI can use a small --n-list run as a correctness + JSON-shape
// smoke without timing gates.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/routes.hpp"
#include "dsn/flow/workload.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/topology/topology.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct TimedRun {
  dsn::flow::FlowResult res;
  double wall_ms = 0.0;
};

TimedRun time_run(const dsn::Topology& topo, const dsn::flow::FlowConfig& cfg,
                  const std::string& workload, const dsn::flow::WorkloadParams& params,
                  std::uint64_t repeat) {
  TimedRun best;
  for (std::uint64_t r = 0; r < repeat; ++r) {
    dsn::flow::FlowSimulator sim(topo, cfg);
    const std::unique_ptr<dsn::flow::WorkloadDriver> driver =
        dsn::flow::make_workload(workload, params);
    const auto t0 = Clock::now();
    dsn::flow::FlowResult res = sim.run(*driver);
    const double took = ms_since(t0);
    if (r == 0 || took < best.wall_ms) {
      best.wall_ms = took;
      best.res = std::move(res);
    }
  }
  return best;
}

int run(int argc, char** argv) {
  dsn::Cli cli(
      "Flow-tier scale microbenchmark: datacenter workloads on the fluid "
      "max-min simulator across topology families up to a million hosts");
  cli.add_flag("topology-list", "dsn,dln,random-regular",
               "comma-separated factory names (see make_topology_by_name)");
  // 4096 switches is the cross-checkable small end; 262144 x 4 hosts/switch
  // is the million-host scale headline the flit simulator cannot reach.
  cli.add_flag("n-list", "4096,262144", "comma-separated switch counts");
  cli.add_flag("workload-list", "hdfs-write,shuffle",
               "comma-separated workload names (see workload_names)");
  cli.add_flag("clients", "1024", "workload participants");
  // Shuffle emits clients^2 fetches, so it gets its own participant count:
  // 1024 mappers x 1024 reducers is a million flows per cell, which at the
  // 262144-switch scale point is tens of minutes of water-filling for the
  // same flows-per-second figure 256^2 measures in under a minute.
  cli.add_flag("shuffle-clients", "256", "workload participants for shuffle");
  cli.add_flag("units", "8", "work units per participant");
  cli.add_flag("unit-flits", "512", "flits per work unit");
  cli.add_flag("window", "8", "concurrent flows per participant");
  cli.add_flag("rack-hosts", "32", "hosts per rack for replica placement");
  cli.add_flag("hosts-per-switch", "4", "hosts attached to each switch");
  // Event-exact stepping (min-epoch 1) solves once per completion — at a
  // million flows that is the entire wall time of the bench. 512 cycles
  // batches a congestion window per solve without moving the makespan.
  cli.add_flag("min-epoch", "512", "epoch floor in cycles");
  cli.add_flag("seed", "1", "placement / generator seed");
  cli.add_flag("verify-max-n", "65536",
               "run the max-min invariant check on rows up to this n");
  cli.add_flag("bfs-max-n", "16384",
               "skip cells whose route mode is per-pair BFS above this n "
               "(BFS frontiers dominate the sweep at 100k+ switches; the "
               "algebraic dsn/dln modes carry the scale rows)");
  cli.add_flag("repeat", "1", "timing repetitions (best-of)");
  cli.add_flag("json", "", "also write the JSON report to this path");
  if (!cli.parse(argc, argv)) return 0;

  const auto repeat = std::max<std::uint64_t>(1, cli.get_uint("repeat"));
  const std::uint64_t verify_max_n = cli.get_uint("verify-max-n");
  const std::uint64_t seed = cli.get_uint("seed");

  dsn::flow::FlowConfig base_cfg;
  base_cfg.hosts_per_switch = cli.get_uint32("hosts-per-switch");
  base_cfg.min_epoch_cycles = cli.get_uint("min-epoch");

  bool all_ok = true;
  dsn::Json results = dsn::Json::array();
  for (const std::uint32_t n : cli.get_uint32_list("n-list")) {
    for (const std::string& tname : cli.get_list("topology-list")) {
      const dsn::Topology topo =
          dsn::make_topology_by_name(tname, n, seed);

      dsn::flow::WorkloadParams params;
      params.hosts = n * base_cfg.hosts_per_switch;
      params.rack_hosts = cli.get_uint32("rack-hosts");
      params.clients = cli.get_uint32("clients");
      params.units = cli.get_uint32("units");
      params.unit_flits = cli.get_uint("unit-flits");
      params.window = cli.get_uint32("window");
      params.seed = seed;

      {
        const dsn::CsrView csr(topo.graph);
        const dsn::flow::FlowRoutes probe(topo, csr, base_cfg.updown_max_n);
        if (probe.mode() == "bfs" && n > cli.get_uint("bfs-max-n")) {
          std::cerr << "skip " << topo.name
                    << ": per-pair BFS routes above --bfs-max-n\n";
          continue;
        }
      }

      for (const std::string& workload : cli.get_list("workload-list")) {
        dsn::flow::FlowConfig cfg = base_cfg;
        cfg.verify = n <= verify_max_n;
        dsn::flow::WorkloadParams wl_params = params;
        if (workload == "shuffle") {
          wl_params.clients = cli.get_uint32("shuffle-clients");
        }
        const TimedRun run = time_run(topo, cfg, workload, wl_params, repeat);
        const dsn::flow::FlowResult& res = run.res;

        dsn::Json row = dsn::Json::object();
        row.set("topology", topo.name);
        row.set("n", static_cast<std::uint64_t>(n));
        row.set("hosts", res.hosts);
        row.set("workload", workload);
        row.set("flows", res.flows);
        row.set("flits", res.flits_total);
        row.set("epochs", res.epochs);
        row.set("waterfill_rounds_max", static_cast<std::uint64_t>(res.max_waterfill_rounds));
        row.set("waterfill_rounds_total", res.waterfill_rounds_total);
        row.set("converged", res.converged);
        row.set("makespan_cycles", res.makespan_cycles);
        row.set("per_host_flits_per_cycle", res.per_host_flits_per_cycle);
        row.set("wall_ms", run.wall_ms);
        row.set("flows_per_sec",
                run.wall_ms > 0.0
                    ? static_cast<double>(res.flows_completed) / (run.wall_ms / 1'000.0)
                    : 0.0);
        if (cfg.verify) {
          const bool ok = res.verify_violations == 0;
          row.set("check", ok ? "ok" : "max-min-violated");
          if (!ok) {
            all_ok = false;
            std::cerr << "max-min violated: " << res.verify_first << "\n";
          }
        }
        if (!res.converged) all_ok = false;
        results.push_back(std::move(row));
        std::cerr << "done " << topo.name << " workload=" << workload
                  << " wall_ms=" << run.wall_ms << "\n";
      }
    }
  }

  dsn::Json report = dsn::Json::object();
  report.set("bench", "micro_flow");
  report.set("unit", "flows_per_sec");
  report.set("clients", cli.get_uint("clients"));
  report.set("shuffle_clients", cli.get_uint("shuffle-clients"));
  report.set("units", cli.get_uint("units"));
  report.set("unit_flits", cli.get_uint("unit-flits"));
  report.set("window", cli.get_uint("window"));
  report.set("min_epoch_cycles", base_cfg.min_epoch_cycles);
  report.set("results", std::move(results));

  const std::string text = report.dump(2);
  std::cout << text << "\n";
  if (const std::string path = cli.get("json"); !path.empty()) {
    std::ofstream out(path);
    out << text << "\n";
    if (!out) {
      std::cerr << "failed to write " << path << "\n";
      return 2;
    }
  }

  if (!all_ok) {
    std::cerr << "CHECK FAILED: a run did not converge or violated max-min\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
