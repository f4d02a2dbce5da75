// Microbenchmark for the active-set simulator core (dsn/sim/active_core.cpp)
// against the legacy full-scan core: simulated cycles per wall-clock second
// across network size, offered load and shard count, on the paper's DSN
// topology driven by the table-free custom routing policy (the only policy
// whose state is algebraic, so n = 65536 switches needs no routing tables).
//
// Emits a JSON report (stdout, and --json <path>) whose shape is tracked in
// BENCH_sim.json at the repository root — the committed perf trajectory
// future PRs regress against (ci/check_bench_sim.py gates the shape, not
// the absolute timings). Run with no arguments to reproduce the committed
// configuration:
//
//   build/bench/micro_sim --json BENCH_sim.json
//
// --check replays every legacy-core row against the active core and fails
// (exit 1) unless the SimResult JSON dumps are byte-identical, so CI can use
// a small --n-list run as a correctness + JSON-shape smoke without timing
// gates. The legacy core is skipped above --legacy-max-n switches: its
// per-cycle full scan is exactly the cost this engine removes, and at 65536
// switches one legacy run would dominate the whole sweep.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct TimedRun {
  std::string dump;
  std::uint64_t cycles = 0;
  double wall_ms = 0.0;
};

TimedRun time_run(const dsn::Topology& topo, dsn::SimRoutingPolicy& policy,
                  const dsn::TrafficPattern& traffic, const dsn::SimConfig& cfg,
                  std::uint64_t repeat) {
  TimedRun best;
  for (std::uint64_t r = 0; r < repeat; ++r) {
    dsn::Simulator sim(topo, policy, traffic, cfg);
    const auto t0 = Clock::now();
    const dsn::SimResult res = sim.run();
    const double took = ms_since(t0);
    if (r == 0 || took < best.wall_ms) {
      best.wall_ms = took;
      best.cycles = res.cycles_run;
      best.dump = dsn::to_json(res).dump();
    }
  }
  return best;
}

double cycles_per_sec(const TimedRun& run) {
  return run.wall_ms > 0.0
             ? static_cast<double>(run.cycles) / (run.wall_ms / 1'000.0)
             : 0.0;
}

int run(int argc, char** argv) {
  dsn::Cli cli(
      "Active-set simulator core microbenchmark (baseline: the legacy "
      "full-scan core; both cores produce byte-identical SimResult)");
  cli.add_flag("n-list", "64,1024,16384,65536", "comma-separated switch counts");
  // 0.5 is the low-load headline point; 2 is a busy-but-unsaturated network
  // (past the knee the drain phase dominates wall time at n = 65536 without
  // telling us anything new about either core).
  cli.add_flag("load-list", "0.5,2", "offered Gbps per host");
  cli.add_flag("threads-list", "1,4", "active-core shard counts (sim_threads)");
  cli.add_flag("pattern", "uniform", "traffic pattern (see make_traffic)");
  cli.add_flag("warmup", "200", "warmup cycles");
  cli.add_flag("measure", "1000", "measurement cycles");
  cli.add_flag("drain", "30000", "drain-cap cycles");
  cli.add_flag("repeat", "1", "timing repetitions (best-of)");
  cli.add_flag("legacy", "true", "also time the legacy core and report speedup");
  cli.add_flag("legacy-max-n", "16384",
               "skip the legacy core above this switch count");
  cli.add_flag("check", "true",
               "fail unless legacy and active SimResult dumps are byte-identical");
  cli.add_flag("json", "", "also write the JSON report to this path");
  cli.add_flag("trace", "",
               "write a Chrome-trace JSON of the run (sim.run spans; view at "
               "ui.perfetto.dev)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
#if DSN_OBS
    dsn::obs::set_metrics_enabled(true);
    dsn::obs::start_trace();
#else
    std::cerr << "micro_sim: --trace needs a DSN_OBS=1 build "
                 "(instrumentation is compiled out)\n";
    return 2;
#endif
  }

  const auto repeat = std::max<std::uint64_t>(1, cli.get_uint("repeat"));
  const bool run_legacy = cli.get_bool("legacy");
  const std::uint64_t legacy_max_n = cli.get_uint("legacy-max-n");
  const bool check = cli.get_bool("check");
  const std::string pattern = cli.get("pattern");

  dsn::SimConfig base_cfg;
  base_cfg.warmup_cycles = cli.get_uint("warmup");
  base_cfg.measure_cycles = cli.get_uint("measure");
  base_cfg.drain_cycles = cli.get_uint("drain");

  bool all_ok = true;
  dsn::Json results = dsn::Json::array();
  for (const std::uint32_t n : cli.get_uint32_list("n-list")) {
    const dsn::Dsn dsn_topo(n, dsn::dsn_default_x(n));
    const dsn::Topology& topo = dsn_topo.topology();
    dsn::DsnCustomPolicy policy(dsn_topo, base_cfg.vcs);
    const std::uint32_t hosts = n * base_cfg.hosts_per_switch;
    const auto traffic = dsn::make_traffic(pattern, hosts);

    for (const double load : cli.get_double_list("load-list")) {
      dsn::SimConfig cfg = base_cfg;
      cfg.offered_gbps_per_host = load;

      TimedRun legacy;
      const bool timed_legacy = run_legacy && n <= legacy_max_n;
      if (timed_legacy) {
        cfg.legacy_core = true;
        legacy = time_run(topo, policy, *traffic, cfg, repeat);
      }

      for (const std::uint32_t threads : cli.get_uint32_list("threads-list")) {
        cfg.legacy_core = false;
        cfg.sim_threads = threads;
        const TimedRun active = time_run(topo, policy, *traffic, cfg, repeat);

        dsn::Json row = dsn::Json::object();
        row.set("topology", topo.name);
        row.set("n", static_cast<std::uint64_t>(n));
        row.set("hosts", static_cast<std::uint64_t>(hosts));
        row.set("load_gbps_per_host", load);
        row.set("sim_threads", static_cast<std::uint64_t>(threads));
        row.set("cycles", active.cycles);
        row.set("wall_ms", active.wall_ms);
        row.set("cycles_per_sec", cycles_per_sec(active));
        if (timed_legacy) {
          row.set("legacy_wall_ms", legacy.wall_ms);
          row.set("legacy_cycles_per_sec", cycles_per_sec(legacy));
          row.set("speedup",
                  active.wall_ms > 0.0 ? legacy.wall_ms / active.wall_ms : 0.0);
          if (check) {
            const bool ok = active.dump == legacy.dump;
            row.set("check", ok ? "ok" : "MISMATCH");
            if (!ok) all_ok = false;
          }
        }
        results.push_back(std::move(row));
        std::cerr << "done " << topo.name << " load=" << load
                  << " threads=" << threads << "\n";
      }
    }
  }

  dsn::Json report = dsn::Json::object();
  report.set("bench", "micro_sim");
  report.set("unit", "cycles_per_sec");
  report.set("pattern", pattern);
  report.set("warmup_cycles", base_cfg.warmup_cycles);
  report.set("measure_cycles", base_cfg.measure_cycles);
  report.set("drain_cycles", base_cfg.drain_cycles);
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

#if DSN_OBS
  if (!trace_path.empty() && dsn::obs::stop_trace(trace_path))
    std::cerr << "wrote Chrome trace to " << trace_path
              << " (open at ui.perfetto.dev)\n";
#endif

  if (check && !all_ok) {
    std::cerr << "CHECK FAILED: legacy and active SimResult dumps differ\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
