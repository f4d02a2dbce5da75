// Microbenchmark for the shortcut-placement optimizer (dsn/opt): annealing
// throughput (proposals per second) and the cable-vs-ASPL Pareto front per
// topology family and size, up to the n = 65536 scale point of the paper's
// DSN-x-n comparison.
//
// Emits a JSON report (stdout, and --json <path>) whose shape is tracked in
// BENCH_opt.json at the repository root — the committed front trajectory
// future PRs regress against (ci/check_bench_opt.py gates the sweep extents,
// the 65536 row, front monotonicity and the never-worse-than-seed invariant,
// not the absolute timings). Run with no arguments to reproduce the
// committed configuration:
//
//   build/bench/micro_opt --json BENCH_opt.json
//
// Rows with n <= --verify-max-n cross-check the estimator against the exact
// whole-graph sweep (compute_path_stats over all sources) and carry a
// "check" field; any mismatch fails the bench (exit 1), so CI can use a
// small --n-list run as a correctness + JSON-shape smoke without timing
// gates. The front itself is seed-deterministic for any thread count
// (pinned separately by ctest -L determinism).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/topology/topology.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

int run(int argc, char** argv) {
  dsn::Cli cli(
      "Shortcut-placement optimizer microbenchmark: annealing throughput and "
      "the cable-vs-ASPL Pareto front across topology families and sizes");
  cli.add_flag("topology-list", "dsn,dln",
               "comma-separated factory names (see make_topology_by_name)");
  // 1024 is the exact-estimator cross-check point (sample = all sources);
  // 65536 is the DSN-x-n comparison scale the EXPERIMENTS entry reports.
  cli.add_flag("n-list", "1024,4096,16384,65536", "comma-separated node counts");
  cli.add_flag("passes", "3", "annealing passes (restart + weight cycle)");
  cli.add_flag("iterations", "600", "proposals per pass");
  cli.add_flag("plateau", "100", "proposals per temperature step");
  cli.add_flag("sample-sources", "0", "estimator sources (0 = auto)");
  cli.add_flag("seed", "1", "generator / annealing seed");
  cli.add_flag("verify-max-n", "1024",
               "cross-check the estimator against the exact whole-graph "
               "sweep on rows up to this n (needs sample-sources = 0 auto "
               "so the sample covers every source)");
  cli.add_flag("json", "", "also write the JSON report to this path");
  if (!cli.parse(argc, argv)) return 0;

  const std::uint64_t seed = cli.get_uint("seed");
  const std::uint64_t verify_max_n = cli.get_uint("verify-max-n");

  dsn::opt::OptimizerConfig base_cfg;
  base_cfg.seed = seed;
  base_cfg.passes = cli.get_uint32("passes");
  base_cfg.iterations = cli.get_uint32("iterations");
  base_cfg.plateau = cli.get_uint32("plateau");
  base_cfg.estimator.sample_sources = cli.get_uint32("sample-sources");

  bool all_ok = true;
  dsn::Json results = dsn::Json::array();
  for (const std::uint32_t n : cli.get_uint32_list("n-list")) {
    for (const std::string& tname : cli.get_list("topology-list")) {
      const dsn::Topology topo =
          dsn::make_topology_by_name(tname, n, seed);

      const auto t0 = Clock::now();
      const dsn::opt::OptimizerResult res =
          dsn::opt::optimize_shortcuts(topo, base_cfg);
      const double wall_ms = ms_since(t0);

      dsn::Json row = dsn::opt::optimizer_result_to_json(res);
      row.set("family", tname);
      row.set("wall_ms", wall_ms);
      row.set("proposals_per_sec",
              wall_ms > 0.0
                  ? static_cast<double>(res.proposals) / (wall_ms / 1'000.0)
                  : 0.0);
      if (n <= verify_max_n && res.sample_sources == n) {
        // Exact mode: the sampled estimate covers every source, so the seed
        // ASPL must equal the whole-graph sweep bit-for-bit (both are the
        // same integer hop sum divided by the same pair count).
        const dsn::PathStats exact = dsn::compute_path_stats(topo.graph);
        const bool ok = res.seed_point.aspl == exact.avg_shortest_path;
        row.set("check", ok ? "ok" : "estimator-exact-mismatch");
        if (!ok) {
          all_ok = false;
          std::cerr << "estimator " << res.seed_point.aspl << " != exact "
                    << exact.avg_shortest_path << " on " << topo.name << "\n";
        }
      }
      results.push_back(std::move(row));
      std::cerr << "done " << topo.name << " wall_ms=" << wall_ms
                << " front=" << res.front.size()
                << " beats_seed=" << (res.beats_seed ? "yes" : "no") << "\n";
    }
  }

  dsn::Json report = dsn::Json::object();
  report.set("bench", "micro_opt");
  report.set("unit", "proposals_per_sec");
  report.set("passes", cli.get_uint("passes"));
  report.set("iterations", cli.get_uint("iterations"));
  report.set("plateau", cli.get_uint("plateau"));
  report.set("seed", seed);
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
    std::cerr << "CHECK FAILED: estimator disagreed with the exact sweep\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
