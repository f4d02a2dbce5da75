// Determinism gates for the flow tier: results must match pinned digests of
// their full JSON projection, with the per-solve max-min check off and on
// (the check reads every open route back from the fair-share problem), be
// byte-identical for a simulator reused across runs (in-process), and for
// every DSN_THREADS value (subprocess, comparing `dsn-lint flow --json`
// output bytes across thread-pool widths).
// Admission and the fair-share solver are serial; the solver's bitwise
// oracle is FlowFairness.SolverMatchesSerialReferenceBitwise.
// Registered under `ctest -L determinism` via the determinism.flow entry.
// FlowRoutes.ModeFollowsTopologyKind pins which route mode each topology
// kind binds.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/routes.hpp"
#include "dsn/flow/workload.hpp"

namespace dsn::flow {
namespace {

/// FNV-1a digest of a result's JSON projection, as hex.
std::string digest(const FlowResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : to_json(result).dump()) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The pinned runs' workload parameters on `sim`'s hosts.
WorkloadParams golden_params(const FlowSimulator& sim) {
  WorkloadParams params;
  params.hosts = sim.num_hosts();
  params.clients = 16;
  params.units = 6;
  params.unit_flits = 192;
  params.seed = 11;
  return params;
}

/// Digest of `result`; a verified run must also have found no violation.
std::string checked_digest(const FlowResult& result, const FlowConfig& cfg) {
  if (cfg.verify) {
    EXPECT_EQ(result.verify_violations, 0u) << result.verify_first;
  }
  return digest(result);
}

/// Digest of one full closed-loop run.
std::string run_digest(const std::string& topology, const std::string& workload,
                       std::uint32_t n, const FlowConfig& cfg = {}) {
  const Topology topo = make_topology_by_name(topology, n);
  FlowSimulator sim(topo, cfg);
  return checked_digest(sim.run(*make_workload(workload, golden_params(sim))), cfg);
}

// Every pinned run holds its digest with the max-min check off and on: the
// check changes no reported field while it finds nothing.

TEST(FlowDeterminism, GoldenResults) {
  // Pinned result bytes for the three route modes (dsn, updown, dln-jump).
  // Recorded when admission still routed in parallel shards, where they held
  // at 1, 2, 4, 8 and 13 shards.
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "verify" : "no verify");
    FlowConfig cfg;
    cfg.verify = verify;
    EXPECT_EQ(run_digest("dsn", "shuffle", 128, cfg), "4c96d1937de57a4a");
    EXPECT_EQ(run_digest("random-regular", "hdfs-write", 128, cfg), "43231112d5aeda6b");
    EXPECT_EQ(run_digest("dln", "allreduce-ring", 128, cfg), "475981734d3d0473");
  }
}

TEST(FlowDeterminism, GoldenResultsAcrossSolverShapes) {
  // Pinned result bytes for what GoldenResults leaves out: DSN-E's Up links
  // run parallel to the ring, so those arcs pool their capacity; an epoch
  // floor of 512 cycles retires several flows per epoch, as the benchmark's
  // shuffle does; a static batch starts every flow at once; the torus
  // routes by DOR; and random-regular above updown_max_n routes each pair
  // by BFS.
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "verify" : "no verify");
    FlowConfig cfg;
    cfg.verify = verify;
    EXPECT_EQ(run_digest("dsn-e", "hdfs-read", 128, cfg), "3196ebcdb15e60c3");
    FlowConfig coarse = cfg;
    coarse.min_epoch_cycles = 512;
    EXPECT_EQ(run_digest("dsn", "shuffle", 1024, coarse), "2e87b2eba1d4b920");
    const Topology dln = make_topology_by_name("dln", 128);
    FlowSimulator sim(dln, cfg);
    const std::vector<Demand> batch =
        expand_all_demands(*make_workload("hdfs-write", golden_params(sim)));
    EXPECT_EQ(checked_digest(sim.run(batch), cfg), "b67230ec038cc520");
    EXPECT_EQ(run_digest("torus", "allreduce-tree", 128, cfg), "92e7a16a9778c11a");
    FlowConfig bfs = cfg;
    bfs.updown_max_n = 32;
    EXPECT_EQ(run_digest("random-regular", "hdfs-write", 128, bfs), "b0270c3a546f96f9");
  }
}

TEST(FlowDeterminism, StaticBatchMatchesRepeatedRun) {
  // Two simulators fed the same expanded batch must agree byte-for-byte —
  // admission has no hidden per-instance state.
  const Topology topo = make_topology_by_name("dsn", 128);
  WorkloadParams params;
  params.clients = 16;
  params.units = 6;
  params.seed = 3;
  std::string first;
  for (int round = 0; round < 2; ++round) {
    FlowConfig cfg;
    FlowSimulator sim(topo, cfg);
    params.hosts = sim.num_hosts();
    const std::unique_ptr<WorkloadDriver> driver = make_workload("hdfs-read", params);
    const std::vector<Demand> batch = expand_all_demands(*driver);
    const std::string bytes = to_json(sim.run(batch)).dump();
    if (round == 0)
      first = bytes;
    else
      EXPECT_EQ(first, bytes);
  }
}

TEST(FlowDeterminism, ReusedSimulatorMatchesFreshOne) {
  // A simulator carries only its topology, routes, route workspace and its
  // fair-share problem (capacities, recycled ids and storage, no open flows)
  // from one run to the next: back-to-back runs of different workloads must
  // each report what a fresh simulator reports.
  // The second case routes by per-pair BFS (random-regular above
  // updown_max_n), whose visit stamps live in the kept route workspace.
  const std::vector<std::pair<std::string, std::uint32_t>> cases = {
      {"dsn", FlowConfig{}.updown_max_n}, {"random-regular", 32}};
  for (const auto& [topology, updown_max_n] : cases) {
    const Topology topo = make_topology_by_name(topology, 128);
    FlowConfig cfg;
    cfg.updown_max_n = updown_max_n;
    FlowSimulator reused(topo, cfg);
    WorkloadParams params;
    params.hosts = reused.num_hosts();
    params.clients = 16;
    params.units = 6;
    params.seed = 3;
    for (const char* workload : {"shuffle", "hdfs-read"}) {
      const std::string fresh =
          to_json(FlowSimulator(topo, cfg).run(*make_workload(workload, params))).dump();
      for (int run = 0; run < 2; ++run) {
        EXPECT_EQ(fresh, to_json(reused.run(*make_workload(workload, params))).dump())
            << topology << " " << workload << " run " << run;
      }
    }
    const std::vector<Demand> batch =
        expand_all_demands(*make_workload("hdfs-read", params));
    const std::string fresh = to_json(FlowSimulator(topo, cfg).run(batch)).dump();
    for (int run = 0; run < 2; ++run)
      EXPECT_EQ(fresh, to_json(reused.run(batch)).dump())
          << topology << " static batch run " << run;
  }
}

/// Run the real dsn-lint binary (path injected by CMake as DSN_LINT_PATH)
/// with an environment prefix, capturing stdout.
std::string run_lint_flow(const std::string& env_prefix, const std::string& args,
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

TEST(FlowDeterminism, LintFlowBytesInvariantUnderDsnThreads) {
  const std::string args =
      "flow --topology dsn --n 128 --workload shuffle --clients 16 --json";
  int base_code = -1;
  const std::string base = run_lint_flow("DSN_THREADS=1", args, base_code);
  ASSERT_EQ(base_code, 0) << base;
  for (const char* threads : {"4", "8"}) {
    int code = -1;
    const std::string out =
        run_lint_flow(std::string("DSN_THREADS=") + threads, args, code);
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(base, out) << "DSN_THREADS=" << threads;
  }
}

// The route each flow takes: the analyzer's default family for the kind,
// except DLN's dln-jump and per-pair BFS in place of up*/down* tables above
// updown_max_n. Pinned for every named family at n = 64.
TEST(FlowRoutes, ModeFollowsTopologyKind) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"dsn", "dsn"},           {"torus", "dor"},      {"torus3d", "dor"},
      {"random", "updown"},     {"ring", "updown"},    {"dln", "dln-jump"},
      {"kleinberg", "greedy"},  {"random-regular", "updown"},
      {"dsn-d", "dsn-d"},       {"dsn-e", "dsn"},      {"dsn-bidir", "dsn"}};
  for (const auto& [family, mode] : expected) {
    const Topology topo = make_topology_by_name(family, 64, 1);
    const CsrView csr(topo.graph);
    EXPECT_EQ(FlowRoutes(topo, csr).mode(), mode) << family;
  }
  const Topology rr = make_topology_by_name("random-regular", 64, 1);
  const CsrView csr(rr.graph);
  EXPECT_EQ(FlowRoutes(rr, csr, 32).mode(), "bfs");
}

}  // namespace
}  // namespace dsn::flow
