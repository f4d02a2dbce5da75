// Tests for topology import/export: DOT rendering, edge-list round trips.
#include <gtest/gtest.h>

#include "dsn/analysis/factory.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/io.hpp"

namespace dsn {
namespace {

TEST(Dot, ContainsAllLinks) {
  const Topology t = make_topology_by_name("dsn", 32);
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("graph \"dsn-4-32\""), std::string::npos);
  // Count edge lines.
  std::size_t edges = 0;
  for (std::size_t pos = 0; (pos = dot.find(" -- ", pos)) != std::string::npos; ++pos) {
    ++edges;
  }
  EXPECT_EQ(edges, t.graph.num_links());
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // shortcuts colored
}

class RoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripTest, EdgeListRoundTrip) {
  const Topology original = make_topology_by_name(GetParam(), 64, 7);
  const Topology parsed = parse_edge_list(to_edge_list(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.kind, original.kind);
  EXPECT_EQ(parsed.num_nodes(), original.num_nodes());
  EXPECT_EQ(parsed.dims, original.dims);
  ASSERT_EQ(parsed.graph.num_links(), original.graph.num_links());
  for (LinkId l = 0; l < original.graph.num_links(); ++l) {
    EXPECT_EQ(parsed.graph.link_endpoints(l), original.graph.link_endpoints(l));
    EXPECT_EQ(parsed.link_roles[l], original.link_roles[l]);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, RoundTripTest,
                         ::testing::Values("dsn", "torus", "random", "ring",
                                           "dsn-e", "dsn-bidir"));

TEST(EdgeList, RoundTripPreservesMetrics) {
  const Topology original = make_topology_by_name("dsn", 128);
  const Topology parsed = parse_edge_list(to_edge_list(original));
  const auto a = compute_path_stats(original.graph);
  const auto b = compute_path_stats(parsed.graph);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_DOUBLE_EQ(a.avg_shortest_path, b.avg_shortest_path);
}

TEST(EdgeList, RejectsGarbage) {
  EXPECT_THROW(parse_edge_list(""), PreconditionError);
  EXPECT_THROW(parse_edge_list("not a topology\n0 1 ring\n"), PreconditionError);
  EXPECT_THROW(parse_edge_list("# dsn-topology t dsn 4\n0 1 bogus-role\n"),
               PreconditionError);
  // A non-numeric dim used to end the dims silently.
  EXPECT_THROW(parse_edge_list("# dsn-topology t torus2d 4 2 x 2\n0 1 ring\n"),
               PreconditionError);
}

/// The PreconditionError message parse_edge_list throws on `text`, or "" when
/// it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_edge_list(text);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return {};
}

TEST(EdgeList, RejectsMalformedLinesWithTheirLineNumber) {
  const std::string header = "# dsn-topology t ring 4\n";
  const std::string links = "0 1 ring\n1 2 ring\n2 3 ring\n3 0 ring\n";
  // Trailing garbage used to end the link list silently.
  std::string err = parse_error(header + links + "garbage here\n");
  EXPECT_NE(err.find("edge-list line 6: garbage here"), std::string::npos) << err;
  // A bad token mid-file used to drop every later link.
  err = parse_error(header + "0 1 ring\n2 x ring\n" + "2 3 ring\n3 0 ring\n");
  EXPECT_NE(err.find("edge-list line 3: 2 x ring"), std::string::npos) << err;
  // A line without its role used to read the next line's id as the role.
  err = parse_error(header + "0 1\n1 2 ring\n");
  EXPECT_NE(err.find("edge-list line 2: 0 1"), std::string::npos) << err;
  err = parse_error(header + "0 1 ring extra-token\n");
  EXPECT_NE(err.find("edge-list line 2: 0 1 ring extra-token"), std::string::npos) << err;
  err = parse_error(header + "0 1 bogus-role\n");
  EXPECT_NE(err.find("unknown link role 'bogus-role' on edge-list line 2"), std::string::npos)
      << err;
  // The message names the format, the line and what was expected — not the
  // C++ check or the source file behind it.
  EXPECT_EQ(parse_error(header + "0 1 ring\n0 1 ring 7\n"),
            "malformed edge-list line 3: 0 1 ring 7 (expected \"u v role\")");
  EXPECT_EQ(parse_error(header + "0 1 bogus-role\n"),
            "unknown link role 'bogus-role' on edge-list line 2: 0 1 bogus-role (expected "
            "ring, wrap, shortcut, dlocal, up or extra)");
  // Ids are plain decimals: a sign or a prefix used to wrap or stop the read.
  EXPECT_EQ(parse_error(header + "0 -1 ring\n"),
            "malformed edge-list line 2: 0 -1 ring (expected v as an unsigned decimal)");
  EXPECT_EQ(parse_error(header + "0x1 1 ring\n"),
            "malformed edge-list line 2: 0x1 1 ring (expected u as an unsigned decimal)");
  // A header n of -4 used to wrap to 4294967292 and throw std::bad_alloc.
  EXPECT_EQ(parse_error("# dsn-topology t ring -4\n"),
            "malformed edge-list line 1: # dsn-topology t ring -4 (expected n as an unsigned "
            "decimal)");
  EXPECT_EQ(parse_error("# dsn-topology t ring 0\n"),
            "malformed edge-list line 1: # dsn-topology t ring 0 (expected n > 0)");
  err = parse_error("# dsn-topology t hexagon 4\n");
  EXPECT_EQ(err.rfind("unknown topology kind 'hexagon' on edge-list line 1:", 0), 0u) << err;
}

TEST(EdgeList, RejectsOutOfRangeIdsAndSelfLoopsWithTheirLineNumber) {
  const std::string header = "# dsn-topology t ring 4\n";
  std::string err = parse_error(header + "0 1 ring\n0 9 ring\n");
  EXPECT_NE(err.find("node id out of range for n = 4 on edge-list line 3: 0 9 ring"),
            std::string::npos)
      << err;
  err = parse_error(header + "0 1 ring\n\n2 2 ring\n");
  EXPECT_NE(err.find("self loop on edge-list line 4: 2 2 ring"), std::string::npos) << err;
}

TEST(EdgeList, SkipsBlankLines) {
  const Topology t =
      parse_edge_list("# dsn-topology t ring 3\n\n0 1 ring\n   \n1 2 ring\r\n2 0 ring\n\n");
  EXPECT_EQ(t.graph.num_links(), 3u);
  EXPECT_EQ(t.link_roles.size(), 3u);
  // '#' lines after the header are comments, like blank lines.
  const Topology c = parse_edge_list("# dsn-topology t ring 3\n# links\n0 1 ring\n  # more\n");
  EXPECT_EQ(c.graph.num_links(), 1u);
}

TEST(EdgeList, HeaderCarriesDims) {
  const Topology t = make_topology_by_name("torus", 64);
  const std::string text = to_edge_list(t);
  EXPECT_NE(text.find("torus2d 64 8 8"), std::string::npos);
}

}  // namespace
}  // namespace dsn
