// Correctness gates for the sampled path/load estimator
// (dsn/graph/estimator) and determinism gates for the shortcut-placement
// optimizer built on it (dsn/opt). The estimator's contract is exactness:
// in exact mode (sample = every source) it must equal the whole-graph
// sweep bit-for-bit, and after any sequence of evaluate/commit/discard
// calls its committed state must be byte-identical to a fresh rebuild.
// The OptDeterminism suite is registered under `ctest -L determinism` via
// the determinism.opt entry.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/load_bound.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

TEST(OptEstimator, ExactModeMatchesWholeGraphSweep) {
  // n <= 1024 with auto sampling puts every source in the sample, so the
  // estimate IS the exact sweep: same integer hop sums, same division.
  const std::vector<std::string> names = {"dsn", "dln", "random-regular"};
  std::vector<Topology> topos;
  for (const std::string& name : names) topos.push_back(make_topology_by_name(name, 256, 3));
  topos.push_back(make_watts_strogatz(256, 4, 0.3, 5));
  for (const Topology& topo : topos) {
    const CsrView csr(topo.graph);
    const SampledPathEstimator est(csr, EstimatorConfig{});
    ASSERT_EQ(est.sources().size(), topo.graph.num_nodes()) << topo.name;

    const PathStats exact = compute_path_stats(csr);
    EXPECT_EQ(est.current().aspl, exact.avg_shortest_path) << topo.name;

    const analyze::TreeLoadBound bound = analyze::compute_tree_load_bound(csr);
    EXPECT_EQ(est.current().max_link_load, bound.max_load) << topo.name;
    EXPECT_EQ(est.current().max_normalized_load, bound.max_normalized) << topo.name;
    EXPECT_EQ(est.current().throughput_bound, bound.throughput_bound) << topo.name;
  }
}

TEST(OptEstimator, SampledEstimateConverges) {
  const Topology topo = make_topology_by_name("dsn", 1024, 1);
  const CsrView csr(topo.graph);
  const PathStats exact = compute_path_stats(csr);

  double prev_err = 1e9;
  for (const std::uint32_t samples : {128u, 256u, 1024u}) {
    EstimatorConfig cfg;
    cfg.sample_sources = samples;
    const SampledPathEstimator est(csr, cfg);
    const double err =
        std::abs(est.current().aspl - exact.avg_shortest_path) / exact.avg_shortest_path;
    // Source means concentrate tightly (every source averages over all n-1
    // destinations), so even an eighth of the sources lands close.
    EXPECT_LT(err, 0.05) << "samples=" << samples;
    EXPECT_LE(err, prev_err + 1e-12) << "samples=" << samples;
    prev_err = err;
  }
  EXPECT_EQ(prev_err, 0.0);  // the full sample is the exact sweep
}

/// Ring of n nodes plus `chords` long chords — a large-diameter graph whose
/// distance structure differs sharply from a DSN graph's.
std::vector<std::pair<NodeId, NodeId>> ring_with_chords(NodeId n, NodeId chords) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  for (NodeId c = 0; c < chords; ++c) {
    const NodeId u = static_cast<NodeId>((c * n) / chords);
    edges.emplace_back(u, static_cast<NodeId>((u + n / 2 - 3 * c) % n));
  }
  return edges;
}

bool has_edge(const std::vector<std::pair<NodeId, NodeId>>& edges, NodeId a, NodeId b) {
  for (const auto& [u, v] : edges)
    if ((u == a && v == b) || (u == b && v == a)) return true;
  return false;
}

/// Swap the far endpoints of random pairs among edges[first..] (the same link
/// ids keep their slots), evaluate each candidate, and commit or discard it.
/// After every commit the estimator's state must equal a fresh estimator's
/// on the committed graph. Exact mode (n <= 1024): every mismatch is a bug.
void expect_commits_match_fresh(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges,
                                std::size_t first, std::uint64_t seed, int& accepted) {
  SampledPathEstimator est(CsrView(n, edges), EstimatorConfig{});
  Rng rng(seed);
  const std::size_t movable = edges.size() - first;
  std::uint64_t evaluated = 0;
  accepted = 0;
  for (int step = 0; step < 60; ++step) {
    const std::size_t c1 = first + rng.next_below(movable);
    std::size_t c2 = first + rng.next_below(movable - 1);
    if (c2 >= c1) ++c2;
    std::vector<std::pair<NodeId, NodeId>> next_edges = edges;
    std::swap(next_edges[c1].second, next_edges[c2].second);
    const auto& n1 = next_edges[c1];
    const auto& n2 = next_edges[c2];
    if (n1.first == n1.second || n2.first == n2.second) continue;
    if (has_edge(edges, n1.first, n1.second) || has_edge(edges, n2.first, n2.second))
      continue;
    const EstimateView& cand = est.evaluate(CsrView(n, next_edges));
    ++evaluated;
    // Endpoint swaps can disconnect the graph; the coin flip exercises
    // discard() on connected candidates too.
    if (!cand.sample_connected || (rng.next() & 1) != 0) {
      est.discard();
      continue;
    }
    est.commit();
    edges = std::move(next_edges);
    ++accepted;

    const SampledPathEstimator fresh(CsrView(n, edges), EstimatorConfig{});
    ASSERT_EQ(est.current().sum_hops, fresh.current().sum_hops) << "step " << step;
    ASSERT_EQ(est.current().reachable_pairs, fresh.current().reachable_pairs);
    ASSERT_EQ(est.current().aspl, fresh.current().aspl) << "step " << step;
    ASSERT_EQ(est.current().max_link_load, fresh.current().max_link_load);
    ASSERT_EQ(est.current().max_normalized_load, fresh.current().max_normalized_load);
    ASSERT_EQ(est.link_loads(), fresh.link_loads()) << "step " << step;
  }
  // Every evaluate() is one sweep; the constructor's sweep is not counted.
  EXPECT_EQ(est.full_sweeps(), evaluated);
}

TEST(OptEstimator, CommitMatchesFreshAfterSwaps) {
  // Production-shaped input: swaps among all links of a DSN graph.
  const Topology topo = make_topology_by_name("dsn", 256, 2);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (LinkId l = 0; l < topo.graph.num_links(); ++l)
    edges.push_back(topo.graph.link_endpoints(l));
  int accepted = 0;
  ASSERT_NO_FATAL_FAILURE(expect_commits_match_fresh(
      static_cast<NodeId>(topo.graph.num_nodes()), edges, 0, 23, accepted));
  EXPECT_GE(accepted, 10);

  // Large-diameter input: chord swaps on a ring (ring links stay put, so the
  // graph stays connected).
  constexpr NodeId kN = 400;
  ASSERT_NO_FATAL_FAILURE(
      expect_commits_match_fresh(kN, ring_with_chords(kN, 8), kN, 17, accepted));
  EXPECT_GE(accepted, 10);
}

TEST(OptDeterminism, RepeatedRunsAreIdentical) {
  opt::OptimizerConfig cfg;
  cfg.seed = 7;
  cfg.passes = 2;
  cfg.iterations = 60;
  cfg.plateau = 20;
  const Topology topo = make_topology_by_name("dsn", 192, 1);
  const opt::OptimizerResult a = opt::optimize_shortcuts(topo, cfg);
  const opt::OptimizerResult b = opt::optimize_shortcuts(topo, cfg);
  EXPECT_EQ(opt::optimizer_result_to_json(a).dump(), opt::optimizer_result_to_json(b).dump());
  EXPECT_EQ(a.best_shortcuts, b.best_shortcuts);
}

TEST(OptDeterminism, GoldenFrontDln256) {
  // Recorded when the estimator still skipped unaffected sources (258
  // per-source re-sweeps on this run): one exact sweep per proposal must
  // reproduce the same anneal bit-for-bit.
  opt::OptimizerConfig cfg;
  cfg.seed = 1;
  cfg.passes = 2;
  cfg.iterations = 200;
  cfg.plateau = 50;
  const opt::OptimizerResult res =
      opt::optimize_shortcuts(make_topology_by_name("dln", 256, 1), cfg);
  EXPECT_EQ(res.accepted, 155u);
  EXPECT_EQ(res.archive_size, 43u);
  const std::vector<std::pair<double, double>> golden = {
      {6165.4000000000806, 3.0313112745098039},
      {6169.6000000000795, 3.0035539215686273},
      {6178.0000000000791, 2.9942708333333332},
      {6179.2000000000799, 2.9679840686274508},
      {6186.4000000000779, 2.9579656862745098},
      {6187.6000000000768, 2.9458639705882352},
      {6190.6000000000795, 2.9369485294117648},
      {6196.0000000000755, 2.9329656862745099},
      {6196.0000000000791, 2.9175245098039215},
      {6197.2000000000789, 2.9087316176470588},
      {6200.2000000000744, 2.9046568627450982},
      {6206.8000000000784, 2.8972120098039214},
      {6211.0000000000746, 2.8666973039215686},
      {6216.4000000000742, 2.8534620098039216},
      {6217.600000000074, 2.8516237745098039},
      {6218.8000000000739, 2.8345894607843136},
      {6225.4000000000742, 2.8262254901960784},
      {6229.0000000000746, 2.8001531862745099},
      {6234.4000000000715, 2.798621323529412},
      {6234.4000000000742, 2.7920649509803921},
      {6238.6000000000722, 2.7919424019607844},
      {6239.8000000000739, 2.7900735294117647},
      {6241.0000000000746, 2.7845894607843138},
      {6242.2000000000735, 2.7823529411764705},
      {6247.6000000000731, 2.7736213235294116},
      {6251.8000000000729, 2.7691789215686273},
      {6256.0000000000728, 2.7640625000000001},
      {6256.6000000000722, 2.7568321078431373},
      {6257.2000000000717, 2.7450367647058824},
      {6257.2000000000726, 2.7334865196078431},
      {6262.6000000000713, 2.7297487745098041},
      {6265.6000000000713, 2.727205882352941},
      {6268.0000000000709, 2.7189338235294116},
      {6276.4000000000697, 2.7110906862745097},
      {6284.8000000000693, 2.710294117647059},
      {6296.2000000000689, 2.7047794117647057},
      {6301.6000000000686, 2.6990196078431374},
  };
  std::vector<std::pair<double, double>> front;
  for (const opt::OptPoint& p : res.front) front.emplace_back(p.cable_m, p.aspl);
  EXPECT_EQ(front, golden);
}

/// Run the real dsn-lint binary (path injected by CMake as DSN_LINT_PATH)
/// with an environment prefix, capturing stdout.
std::string run_lint(const std::string& env_prefix, const std::string& args,
                     int& exit_code) {
  const std::string cmd =
      env_prefix + " " + std::string(DSN_LINT_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, got);
  const int status = pclose(pipe);
  exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return output;
}

TEST(OptDeterminism, LintOptimizeBytesInvariantUnderDsnThreads) {
  // The committed BENCH_opt.json front must not depend on the runner's core
  // count: the full --json projection (front, counters, every float) is
  // compared as bytes across thread-pool widths.
  const std::string args =
      "optimize --topology dsn --n 192 --passes 2 --iterations 80 --plateau 20 --json";
  int base_code = -1;
  const std::string base = run_lint("DSN_THREADS=1", args, base_code);
  ASSERT_EQ(base_code, 0) << base;
  for (const char* threads : {"4", "8"}) {
    int code = -1;
    const std::string out =
        run_lint(std::string("DSN_THREADS=") + threads, args, code);
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(base, out) << "DSN_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace dsn
