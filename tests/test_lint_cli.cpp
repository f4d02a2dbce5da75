// End-to-end contract tests for the dsn-lint CLI: these spawn the real
// binary (path injected by CMake as DSN_LINT_PATH) and pin down the exit-code
// contract of the analyzer subcommands (0 = proven clean, 1 = violations,
// 2 = usage error), the --json report schema, and the deadlock-cycle witness.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

/// Run dsn-lint with the given arguments, capturing stdout (stderr is routed
/// to stdout so usage errors are observable too). `env_prefix` lets callers
/// pin environment variables, e.g. "DSN_THREADS=4".
CliResult run_lint(const std::string& args, const std::string& env_prefix = {}) {
  const std::string cmd = (env_prefix.empty() ? "" : env_prefix + " ") +
                          std::string(DSN_LINT_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CliResult result;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof buf, pipe)) > 0) result.output.append(buf, got);
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return result;
}

// --------------------------------------------------------------------------
// Exit-code contract.
// --------------------------------------------------------------------------

TEST(LintCli, ProvenCleanExitsZero) {
  const CliResult r = run_lint("routes --topology dsn-e --n 64 --strict");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("PASS"), std::string::npos) << r.output;
}

TEST(LintCli, RefutedPropertyExitsOne) {
  // The basic single-class channel scheme is the paper's negative control:
  // its CDG is cyclic, so `cdg` must fail with exit code 1 (not 2).
  const CliResult r = run_lint("cdg --topology dsn --x 2 --n 64");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("VIOLATION cdg-cyclic"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(LintCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("routes --topology no-such-topology --n 64").exit_code, 2);
  EXPECT_EQ(run_lint("routes --topology torus --family dsn --n 64").exit_code, 2)
      << "family/topology mismatch must be a usage error";
  EXPECT_EQ(run_lint("load --topology dsn --n 1").exit_code, 2)
      << "degenerate n must be a usage error, not a crash";
}

TEST(LintCli, MalformedNumberNamesTheFlag) {
  // Lint mode and a subcommand both refuse "64x" instead of linting n = 64,
  // and a 32-bit value past 2^32 - 1 instead of wrapping it (n = 2^32 + 64
  // would lint DSN-5-64; link 2^32 would fail link 0).
  const std::vector<std::array<std::string, 3>> cases = {
      {"--topology dsn --n 64x", "--n", "64x"},
      {"routes --topology dsn --n 64x", "--n", "64x"},
      {"--topology dsn --n 4294967360", "--n", "4294967360"},
      {"drill --topology dsn --n 64 --fail-link 4294967296 --json", "--fail-link",
       "4294967296"}};
  for (const auto& [args, flag, value] : cases) {
    const CliResult r = run_lint(args);
    EXPECT_NE(r.exit_code, 0) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(value), std::string::npos) << args << "\n" << r.output;
  }
}

TEST(LintCli, OutOfRangeFaultIdNamesTheIdAndRange) {
  // A drill fault on a link or switch DSN-5-64 does not have (118 links, 64
  // switches) is a usage error that names the id and the valid range, not
  // the C++ check or its source file.
  const std::vector<std::array<std::string, 3>> cases = {
      {"drill --topology dsn --n 64 --fail-link 999 --json", "link-down 999", "[0, 118)"},
      {"drill --topology dsn --n 64 --fail-switch 999 --json", "switch-down 999", "[0, 64)"}};
  for (const auto& [args, id, range] : cases) {
    const CliResult r = run_lint(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(id), std::string::npos) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(range), std::string::npos) << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("precondition failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("fault.cpp"), std::string::npos) << r.output;
  }
}

TEST(LintCli, RefusalsNameTheReasonNotTheCheck) {
  // A stray token, an unknown flag, a missing value, an infeasible flow
  // workload, a refused flow or sim config and a host count past the 32-bit
  // ids (65536 x 65537 wraps to 65536 in 32 bits) are usage errors whose
  // one line names the flag or field and the offending value, never the C++
  // check or its source file. No case overflows only the resource ids: were
  // that check lost, the run would fill 2^32 capacities (32 GiB).
  const std::vector<std::array<std::string, 3>> cases = {
      {"drill --bogus 1", "--bogus", "unknown flag"},
      {"drill stray", "'stray'", "expected a --flag"},
      {"drill --topology", "--topology", "missing value"},
      {"flow --topology dsn --n 64 --clients 1000", "clients", "1000"},
      {"flow --topology dsn --n 64 --hosts-per-switch 0", "hosts_per_switch",
       "0 is not positive"},
      {"flow --topology dsn --n 64 --min-epoch 0", "min_epoch_cycles", "0 is not in"},
      {"drill --topology dsn --n 64 --load -1", "offered_gbps_per_host",
       "-1 is not non-negative"},
      {"flow --topology ring --n 65536 --hosts-per-switch 65537",
       "hosts_per_switch: 65537 on n = 65536", "32-bit ids"}};
  for (const auto& [args, name, reason] : cases) {
    const CliResult r = run_lint(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(name), std::string::npos) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(reason), std::string::npos) << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("precondition failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find(".cpp:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find(".hpp:"), std::string::npos) << r.output;
  }
}

TEST(LintCli, FamilyOverrideAppliesToDsnTargets) {
  // --family binds the named routing family to the dsn, dsn-e and dsn-d
  // targets too; without it they keep their native family.
  for (const char* target : {"dsn", "dsn-e", "dsn-d"}) {
    const CliResult r = run_lint(std::string("routes --topology ") + target +
                                 " --family updown --n 64 --json");
    EXPECT_EQ(r.exit_code, 0) << target << "\n" << r.output;
    const Json doc = Json::parse(r.output);
    EXPECT_EQ(doc.at("analysis").at("family").as_string(), "updown") << target;
  }
  const CliResult native = run_lint("routes --topology dsn-e --n 64 --json");
  EXPECT_EQ(Json::parse(native.output).at("analysis").at("family").as_string(), "dsn");
  // A family that does not apply to the target is a usage error.
  EXPECT_EQ(run_lint("routes --topology dsn-e --family dsn-d --n 64").exit_code, 2);
}

TEST(LintCli, FamilyOverrideOnDsnVIsAUsageError) {
  // dsn-v is the DSN routing over virtual channels: its family is fixed.
  const CliResult r = run_lint("routes --topology dsn-v --family updown --n 64");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("dsn-v"), std::string::npos) << r.output;
}

TEST(LintCli, LegacyModeContractIsUntouched) {
  // The pre-subcommand interface still exits with the number of failing
  // topologies, 0 when clean.
  const CliResult r = run_lint("--topology dsn --n-list 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintCli, MalformedEdgeListFileIsAnInputError) {
  // A trailing garbage line used to end the link list silently: the file
  // linted clean and exited 0. It is an input error (125) naming the line.
  const std::string path = ::testing::TempDir() + "dsn_lint_trailing_garbage.edges";
  {
    std::ofstream out(path);
    out << "# dsn-topology t ring 4\n0 1 ring\n1 2 ring\n2 3 ring\n3 0 ring\n"
           "garbage here\n";
  }
  const CliResult r = run_lint("--file " + path);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 125) << r.output;
  EXPECT_NE(r.output.find("edge-list line 6: garbage here"), std::string::npos) << r.output;
  // It is reported in the format's terms: the line and what was expected,
  // not the failed C++ expression and the parser's source file.
  EXPECT_NE(r.output.find("malformed edge-list line 6: garbage here (expected \"u v role\")"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("precondition failed"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("io.cpp"), std::string::npos) << r.output;
}

TEST(LintCli, SkipReasonNamesSourceRelativeFile) {
  // Precondition messages locate their check by a path relative to the
  // source tree, so the printed text does not depend on where it was built.
  const CliResult r = run_lint("--topology kleinberg --n 128");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::size_t begin = r.output.find("kleinberg n=128: skipped");
  ASSERT_NE(begin, std::string::npos) << r.output;
  const std::string line = r.output.substr(begin, r.output.find('\n', begin) - begin);
  EXPECT_NE(line.find(" at src/dsn/analysis/factory.cpp:"), std::string::npos) << line;
}

// --------------------------------------------------------------------------
// JSON reports.
// --------------------------------------------------------------------------

TEST(LintCli, JsonReportParsesAndRoundTrips) {
  const CliResult r = run_lint("routes --topology dsn-v --n 64 --strict --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const Json doc = Json::parse(r.output);
  EXPECT_EQ(doc.at("command").as_string(), "routes");
  EXPECT_TRUE(doc.at("strict").as_bool());
  EXPECT_TRUE(doc.at("violations").is_array());
  EXPECT_EQ(doc.at("violations").size(), 0u);
  const Json& analysis = doc.at("analysis");
  EXPECT_TRUE(analysis.at("properties").at("loop_free").as_bool());
  EXPECT_EQ(analysis.at("n").as_int(), 64);
  EXPECT_EQ(analysis.at("pairs").as_int(), 64 * 63);
  // The serializer/parser pair is a fixed point: re-dumping the parsed
  // document reproduces it byte for byte (member order preserved).
  EXPECT_EQ(doc.dump(), Json::parse(doc.dump()).dump());
  EXPECT_EQ(doc.dump(2), Json::parse(doc.dump(2)).dump(2));
}

TEST(LintCli, JsonViolationListMatchesExitCode) {
  const CliResult r = run_lint("cdg --topology dsn --x 2 --n 64 --json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const Json doc = Json::parse(r.output);
  ASSERT_GE(doc.at("violations").size(), 1u);
  EXPECT_EQ(doc.at("violations").at(0).at("kind").as_string(), "cdg-cyclic");
  EXPECT_FALSE(doc.at("analysis").at("cdg").at("acyclic").as_bool());
}

// --------------------------------------------------------------------------
// Deadlock-cycle witness.
// --------------------------------------------------------------------------

TEST(LintCli, CycleWitnessNamesARealCdgCycle) {
  // Extract the cycle the CLI reports for the basic DSN-2-64 scheme and
  // confirm, against an independently built in-process CDG, that every
  // consecutive pair (including the closing edge) is a recorded dependency.
  const CliResult r = run_lint("cdg --topology dsn --x 2 --n 64 --json");
  ASSERT_EQ(r.exit_code, 1) << r.output;
  const Json doc = Json::parse(r.output);
  const Json& cycle = doc.at("analysis").at("cdg").at("cycle");
  ASSERT_GE(cycle.size(), 2u);

  const ChannelDependencyGraph cdg = build_dsn_cdg(Dsn(64, 2), /*extended=*/false);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Json& a = cycle.at(i);
    const Json& b = cycle.at((i + 1) % cycle.size());
    const Channel ca{static_cast<NodeId>(a.at("from").as_int()),
                     static_cast<NodeId>(a.at("to").as_int()),
                     static_cast<std::uint8_t>(a.at("cls").as_int())};
    const Channel cb{static_cast<NodeId>(b.at("from").as_int()),
                     static_cast<NodeId>(b.at("to").as_int()),
                     static_cast<std::uint8_t>(b.at("cls").as_int())};
    EXPECT_TRUE(cdg.has_dependency(ca, cb))
        << "cycle edge " << i << " is not a CDG dependency";
  }
}

TEST(LintCli, HumanWitnessRendersChannelChain) {
  const CliResult r = run_lint("cdg --topology dsn --x 2 --n 64");
  ASSERT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("channel-cycle witness"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("closes the cycle"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("link#"), std::string::npos) << r.output;
}

// --------------------------------------------------------------------------
// load subcommand.
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// stats determinism across thread counts (part of `ctest -L determinism`).
// --------------------------------------------------------------------------

/// Canonical projection of a `stats --json` report: stage order plus, sorted
/// by metric name, the (name, kind) schema of the final snapshot and the
/// values of every thread-count-invariant metric. Wall-clock counters (*_ns)
/// and pool/shard accounting legitimately vary with the worker count and the
/// scheduler; everything else — topology, analyzer, simulator, MS-BFS batch
/// counts — must not.
std::string stats_determinism_projection(const Json& doc) {
  std::string out = "stages:";
  const Json& stages = doc.at("stages");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    out += " " + stages.at(i).at("stage").as_string();
  }
  out += "\n";
  const auto invariant = [](const std::string& name) {
    if (name.find("_ns") != std::string::npos) return false;
    if (name.rfind("dsn.pool.", 0) == 0) return false;
    if (name.find("shard") != std::string::npos) return false;
    return true;
  };
  std::vector<std::string> lines;
  const Json& metrics = doc.at("metrics");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Json& m = metrics.at(i);
    const std::string name = m.at("name").as_string();
    const std::string kind = m.at("kind").as_string();
    std::string line = name + " " + kind;
    if (invariant(name)) {
      if (kind == "counter") {
        line += " value=" + std::to_string(m.at("value").as_int());
      } else if (kind == "gauge") {
        line += " max=" + std::to_string(m.at("max").as_int());
      } else if (kind == "histogram") {
        line += " count=" + std::to_string(m.at("count").as_int()) +
                " sum=" + std::to_string(m.at("sum").as_int());
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(LintCliDeterminism, StatsJsonInvariantAcrossThreadCounts) {
  // The same mini-workload pinned to 1, 4 and 8 pool workers must report a
  // byte-identical projection: the shard-order-merge discipline means thread
  // count may change timings, never schemas, stage order or logical totals.
  std::vector<std::string> projections;
  for (const char* threads : {"1", "4", "8"}) {
    const CliResult r = run_lint(std::string("stats --n 64 --json"),
                                 std::string("DSN_THREADS=") + threads);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    projections.push_back(stats_determinism_projection(Json::parse(r.output)));
  }
  EXPECT_EQ(projections[0], projections[1]);
  EXPECT_EQ(projections[0], projections[2]);
  // Sanity: the projection actually pins values, not just names.
  EXPECT_NE(projections[0].find("dsn.topology.generated counter value="),
            std::string::npos)
      << projections[0];
}

TEST(LintCliDeterminism, AnalyzerJsonInvariantAcrossThreadCounts) {
  // The analyzer runs 4 shards per pool worker, so the thread count moves
  // the shard boundaries and with them each shard's first route (where the
  // CDG's shared-prefix state starts over). The report bytes must not move.
  for (const char* args : {"routes --topology dsn-e --n 256 --json",
                           "cdg --topology dsn --x 2 --n 128 --json",
                           "load --topology dsn-e --n 64 --json"}) {
    std::vector<CliResult> runs;
    for (const char* threads : {"1", "4", "8"})
      runs.push_back(run_lint(args, std::string("DSN_THREADS=") + threads));
    for (const CliResult& r : runs) {
      EXPECT_EQ(r.exit_code, runs[0].exit_code) << args;
      EXPECT_EQ(r.output, runs[0].output) << args;
    }
    // Sanity: the bytes hold a parsed report with a real CDG.
    EXPECT_GT(Json::parse(runs[0].output).at("analysis").at("cdg").at("dependencies").as_int(),
              0)
        << args;
  }
}

TEST(LintCli, LoadReportsThroughputBoundAndThreshold) {
  const CliResult ok = run_lint("load --topology dsn-e --n 64 --json");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  const Json doc = Json::parse(ok.output);
  const Json& load = doc.at("analysis").at("load");
  EXPECT_GT(load.at("max").as_int(), 0);
  EXPECT_GT(load.at("throughput_bound").as_double(), 0.0);
  EXPECT_NEAR(load.at("throughput_bound").as_double(),
              1.0 / load.at("max_normalized").as_double(), 1e-9);

  // An absurdly low threshold turns the same clean run into a violation.
  const CliResult over = run_lint("load --topology dsn-e --n 64 --max-normalized-load 0.001");
  EXPECT_EQ(over.exit_code, 1) << over.output;
  EXPECT_NE(over.output.find("channel-overload"), std::string::npos) << over.output;
}

}  // namespace
}  // namespace dsn
