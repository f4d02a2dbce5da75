// Microbenchmark for the CSR + 64-way bit-parallel MS-BFS all-pairs engine
// (dsn/graph/csr.hpp, dsn/graph/msbfs.hpp) against the pre-CSR baseline: one
// adjacency-list BFS per source merged under a mutex, exactly as
// compute_path_stats shipped before the CSR rewrite.
//
// Emits a JSON report (stdout, and --json <path>) whose shape is tracked in
// BENCH_graph.json at the repository root — the committed perf trajectory
// future PRs regress against. Run with no arguments to reproduce the
// committed configuration:
//
//   build/bench/micro_msbfs --json BENCH_graph.json
//
// path_stats_ms times the 64-lane engine over the explicit all-nodes source
// list, so every row sweeps all n sources whatever the graph's symmetry. The
// public compute_path_stats(csr) sweeps one source per rotation orbit (a
// single source on ring and DLN, one batch on a torus); --check requires it,
// the engine and the baseline to agree on PathStats field for field and
// fails (exit 1) otherwise, so CI can use a small --n-list run as a
// correctness + JSON-shape smoke without timing gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/graph/msbfs.hpp"
#include "dsn/obs/obs.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The pre-CSR compute_path_stats, kept verbatim as the benchmark baseline:
/// one adjacency-list BFS per source, results merged under a single mutex.
dsn::PathStats legacy_path_stats(const dsn::Graph& g) {
  dsn::PathStats stats;
  const dsn::NodeId n = g.num_nodes();
  if (n == 0) return stats;

  std::mutex merge_mutex;
  bool all_reachable = true;
  std::uint32_t diameter = 0;
  __uint128_t total_hops = 0;
  std::uint64_t reachable_pairs = 0;
  std::vector<std::uint64_t> histogram;

  dsn::parallel_for(0, n, [&](std::size_t src) {
    const auto dist = dsn::bfs_distances(g, static_cast<dsn::NodeId>(src));
    std::uint32_t local_max = 0;
    std::uint64_t local_sum = 0;
    std::uint64_t local_pairs = 0;
    bool local_all = true;
    std::vector<std::uint64_t> local_hist;
    for (dsn::NodeId v = 0; v < n; ++v) {
      if (v == src) continue;
      if (dist[v] == dsn::kUnreachable) {
        local_all = false;
        continue;
      }
      local_max = std::max(local_max, dist[v]);
      local_sum += dist[v];
      ++local_pairs;
      if (dist[v] >= local_hist.size()) local_hist.resize(dist[v] + 1, 0);
      ++local_hist[dist[v]];
    }
    std::scoped_lock lock(merge_mutex);
    if (!local_all) all_reachable = false;
    diameter = std::max(diameter, local_max);
    total_hops += local_sum;
    reachable_pairs += local_pairs;
    if (local_hist.size() > histogram.size()) histogram.resize(local_hist.size(), 0);
    for (std::size_t h = 0; h < local_hist.size(); ++h) histogram[h] += local_hist[h];
  });

  stats.connected = n <= 1 || all_reachable;
  stats.diameter = diameter;
  stats.avg_shortest_path =
      reachable_pairs == 0 ? 0.0
                           : static_cast<double>(total_hops) / static_cast<double>(reachable_pairs);
  stats.hop_histogram = std::move(histogram);
  return stats;
}

bool same_stats(const dsn::PathStats& a, const dsn::PathStats& b) {
  return a.connected == b.connected && a.diameter == b.diameter &&
         a.avg_shortest_path == b.avg_shortest_path && a.hop_histogram == b.hop_histogram;
}

int run(int argc, char** argv) {
  dsn::Cli cli(
      "CSR + 64-way bit-parallel MS-BFS all-pairs microbenchmark "
      "(baseline: per-source adjacency-list BFS under a merge mutex)");
  cli.add_flag("topo-list", "dsn,dln,ring", "comma-separated topology families");
  cli.add_flag("n-list", "1024,4096,16384", "comma-separated network sizes");
  cli.add_flag("repeat", "1", "timing repetitions (best-of)");
  cli.add_flag("legacy", "true", "also time the pre-CSR baseline and report speedup");
  cli.add_flag("check", "true",
               "verify the public (orbit-reduced) PathStats, the all-sources engine "
               "sweep and the baseline agree exactly");
  cli.add_flag("json", "", "also write the JSON report to this path");
  cli.add_flag("seed", "1", "topology construction seed");
  cli.add_flag("threads", "0", "worker threads for the shared pool (0 = auto)");
  cli.add_flag("trace", "",
               "write a Chrome-trace JSON of the run (per-shard MS-BFS spans; "
               "view at ui.perfetto.dev)");
  if (!cli.parse(argc, argv)) return 0;

  // The shared pool is created on first use; pin its size before anything
  // below can touch it so the JSON header reports the worker count that
  // actually ran the sweep.
  if (const std::uint64_t threads = cli.get_uint("threads"); threads > 0)
    ::setenv("DSN_THREADS", std::to_string(threads).c_str(), /*overwrite=*/1);

  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
#if DSN_OBS
    dsn::obs::set_metrics_enabled(true);
    dsn::obs::start_trace();
#else
    std::cerr << "micro_msbfs: --trace needs a DSN_OBS=1 build "
                 "(instrumentation is compiled out)\n";
    return 2;
#endif
  }

  const auto repeat = std::max<std::uint64_t>(1, cli.get_uint("repeat"));
  const bool run_legacy = cli.get_bool("legacy");
  const bool check = cli.get_bool("check");
  const std::uint64_t seed = cli.get_uint("seed");

  bool all_ok = true;
  dsn::Json results = dsn::Json::array();
  for (const std::string& topo_name : cli.get_list("topo-list")) {
    for (const std::uint32_t n : cli.get_uint32_list("n-list")) {
      const auto topo =
          dsn::make_topology_by_name(topo_name, n, seed);

      std::vector<dsn::NodeId> all_sources(topo.num_nodes());
      std::iota(all_sources.begin(), all_sources.end(), dsn::NodeId{0});
      double build_ms = 0.0;
      double msbfs_ms = 0.0;
      double ecc_ms = 0.0;
      dsn::PathStats stats;
      for (std::uint64_t r = 0; r < repeat; ++r) {
        auto t0 = Clock::now();
        const dsn::CsrView csr(topo.graph);
        const double built = ms_since(t0);

        t0 = Clock::now();
        stats = dsn::compute_path_stats(csr, all_sources);
        const double swept = ms_since(t0);

        t0 = Clock::now();
        const auto ecc = dsn::eccentricities(csr);
        const double ecced = ms_since(t0);

        if (r == 0 || built + swept < build_ms + msbfs_ms) {
          build_ms = built;
          msbfs_ms = swept;
        }
        ecc_ms = r == 0 ? ecced : std::min(ecc_ms, ecced);
      }

      dsn::Json row = dsn::Json::object();
      row.set("topology", topo.name);
      row.set("family", topo_name);
      row.set("n", static_cast<std::uint64_t>(n));
      row.set("links", static_cast<std::uint64_t>(topo.graph.num_links()));
      row.set("diameter", static_cast<std::uint64_t>(stats.diameter));
      row.set("aspl", stats.avg_shortest_path);
      row.set("csr_build_ms", build_ms);
      row.set("path_stats_ms", msbfs_ms);
      row.set("eccentricities_ms", ecc_ms);

      // The public call sweeps one source per rotation orbit; it must agree
      // with the engine's all-sources sweep, and both with the baseline.
      bool ok = !check || same_stats(dsn::compute_path_stats(dsn::CsrView(topo.graph)), stats);
      if (run_legacy) {
        double legacy_ms = 0.0;
        dsn::PathStats legacy;
        for (std::uint64_t r = 0; r < repeat; ++r) {
          const auto t0 = Clock::now();
          legacy = legacy_path_stats(topo.graph);
          const double took = ms_since(t0);
          legacy_ms = r == 0 ? took : std::min(legacy_ms, took);
        }
        row.set("legacy_path_stats_ms", legacy_ms);
        row.set("speedup", msbfs_ms > 0.0 ? legacy_ms / msbfs_ms : 0.0);
        if (check) ok = ok && same_stats(stats, legacy);
      }
      if (check) {
        row.set("check", ok ? "ok" : "MISMATCH");
        if (!ok) all_ok = false;
      }
      results.push_back(std::move(row));
      std::cerr << "done " << topo.name << " n=" << n << "\n";
    }
  }

  dsn::Json report = dsn::Json::object();
  report.set("bench", "micro_msbfs");
  report.set("unit", "ms");
  report.set("batch", static_cast<std::uint64_t>(dsn::kMsBfsBatch));
  report.set("threads", static_cast<std::uint64_t>(dsn::ThreadPool::global().size()));
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
  if (!all_ok) {
    std::cerr << "PathStats mismatch between the public sweep, the engine and the baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
