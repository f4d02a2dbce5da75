// Structural tests of the basic DSN topology (§IV-B) including the paper's
// Fact 1 (degrees) and Theorem 1b (diameter bound), parameterized over the
// network sizes of the evaluation plus adversarial non-power-of-two sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dsn/common/math.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/dsn.hpp"

namespace dsn {
namespace {

TEST(Dsn, ParameterValidation) {
  EXPECT_THROW(Dsn(4, 1), PreconditionError);    // too small
  EXPECT_THROW(Dsn(64, 0), PreconditionError);   // x < 1
  EXPECT_THROW(Dsn(64, 6), PreconditionError);   // x > p-1 = 5
  EXPECT_NO_THROW(Dsn(64, 5));
  EXPECT_NO_THROW(Dsn(64, 1));
}

TEST(Dsn, BasicParameters) {
  const Dsn d(64, 5);
  EXPECT_EQ(d.n(), 64u);
  EXPECT_EQ(d.p(), 6u);   // ceil(log2 64)
  EXPECT_EQ(d.r(), 4u);   // 64 mod 6
  EXPECT_EQ(d.x(), 5u);
  EXPECT_EQ(dsn_default_x(64), 5u);
}

TEST(Dsn, LevelAssignmentIsPeriodic) {
  const Dsn d(64, 5);
  for (NodeId i = 0; i < 64; ++i) {
    EXPECT_EQ(d.level(i), i % 6 + 1);
    EXPECT_EQ(d.height(i), 6 + 1 - d.level(i));
    EXPECT_EQ(d.super_node(i), i / 6);
  }
}

TEST(Dsn, PredSuccWrapAround) {
  const Dsn d(32, 4);
  EXPECT_EQ(d.pred(0), 31u);
  EXPECT_EQ(d.succ(31), 0u);
  EXPECT_EQ(d.pred(5), 4u);
  EXPECT_EQ(d.succ(5), 6u);
}

TEST(Dsn, ShortcutLevelsAndTargets) {
  const Dsn d(64, 5);
  for (NodeId i = 0; i < 64; ++i) {
    const std::uint32_t l = d.level(i);
    const NodeId j = d.shortcut_target(i);
    if (l > d.x()) {
      EXPECT_EQ(j, kInvalidNode) << "node " << i;
      continue;
    }
    ASSERT_NE(j, kInvalidNode) << "node " << i;
    // Target must have level l+1 and clockwise distance >= floor(n/2^l).
    EXPECT_EQ(d.level(j), l + 1) << "node " << i;
    const auto span = ring_cw_distance(i, j, 64);
    EXPECT_GE(span, d.shortcut_min_span(l)) << "node " << i;
    // Minimality: no closer level-(l+1) node at admissible distance.
    for (std::uint64_t s = d.shortcut_min_span(l); s < span; ++s) {
      const NodeId cand = static_cast<NodeId>((i + s) % 64);
      EXPECT_NE(d.level(cand), l + 1) << "node " << i << " closer candidate " << cand;
    }
  }
}

TEST(Dsn, HighestLevelShortcutHalvesRing) {
  const Dsn d(64, 5);
  // Level-1 nodes (height p) jump at least n/2.
  for (NodeId i = 0; i < 64; i += 6) {
    ASSERT_EQ(d.level(i), 1u);
    const NodeId j = d.shortcut_target(i);
    EXPECT_GE(ring_cw_distance(i, j, 64), 32u);
  }
}

TEST(Dsn, SuperNodeCollapsesToDln) {
  // Fig. 1(c): each complete super node owns exactly one shortcut per level
  // 1..x.
  const Dsn d(64, 5);
  const std::uint32_t complete_supers = 64 / 6;
  for (std::uint32_t s = 0; s < complete_supers; ++s) {
    std::set<std::uint32_t> levels;
    for (std::uint32_t k = 0; k < 6; ++k) {
      const NodeId i = s * 6 + k;
      if (d.shortcut_target(i) != kInvalidNode) levels.insert(d.level(i));
    }
    EXPECT_EQ(levels.size(), d.x()) << "super node " << s;
  }
}

// --------------------------------------------------------------------------
// Fact 1 (degrees), parameterized over sizes incl. non-powers of two.
// --------------------------------------------------------------------------

class DsnFact1Test : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DsnFact1Test, DegreesMatchFact1) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const auto stats = compute_degree_stats(d.topology().graph);

  // Degrees lie in {2, 3, 4, 5} (degree 2 only possible when x < p-1; with
  // x = p-1 minimum is 3 except where a shortcut collapsed onto a ring link).
  EXPECT_GE(stats.min_degree, 2u);
  EXPECT_LE(stats.max_degree, 5u);

  // Average degree <= 4.
  EXPECT_LE(stats.avg_degree, 4.0 + 1e-9);

  // At most p vertices of degree 5.
  const std::uint64_t deg5 = stats.histogram.size() > 5 ? stats.histogram[5] : 0;
  EXPECT_LE(deg5, d.p());
}

TEST_P(DsnFact1Test, ConnectedAndLogDiameter) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const auto s = compute_path_stats(d.topology().graph);
  EXPECT_TRUE(s.connected);
  // Theorem 1b: diameter <= 2.5 p + r for x > p - log p.
  EXPECT_LE(s.diameter, 2.5 * d.p() + d.r()) << "n = " << n;
}

// 65536 (p = 16) and 131070 (p = 17) have p | n: the graph is invariant
// under rotation by p, so the all-pairs sweep takes only p sources.
INSTANTIATE_TEST_SUITE_P(Sizes, DsnFact1Test,
                         ::testing::Values(32u, 64u, 100u, 128u, 200u, 256u, 300u,
                                           512u, 777u, 1024u, 2048u, 65536u, 131070u));

TEST(DsnTheorem1b, ExactDiameterAndAsplWherePDividesN) {
  struct Case {
    std::uint32_t n;
    std::uint32_t diameter;
    double aspl;
  };
  for (const auto& [n, diameter, aspl] :
       {Case{65536, 19, 13.867964}, Case{131070, 19, 14.307164}}) {
    const Dsn d(n, dsn_default_x(n));
    const CsrView csr(d.topology().graph);
    ASSERT_EQ(rotation_period(csr), d.p()) << "n = " << n;
    const PathStats s = compute_path_stats(csr);
    EXPECT_TRUE(s.connected);
    EXPECT_EQ(s.diameter, diameter) << "n = " << n;
    EXPECT_NEAR(s.avg_shortest_path, aspl, 5e-7) << "n = " << n;
  }
}

// Incoming shortcut count never exceeds 2 (the degree-5 analysis of Fact 1).
TEST_P(DsnFact1Test, AtMostTwoIncomingShortcuts) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  std::vector<std::uint32_t> incoming(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    if (d.shortcut_target(i) != kInvalidNode) ++incoming[d.shortcut_target(i)];
  }
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_LE(incoming[i], 2u) << "node " << i << ", n " << n;
  }
}

TEST(Dsn, MultipleOfPAvoidsDegree5) {
  // r = 0 removes the incomplete super node; Fact 1's degree-5 cases need
  // the wrap irregularity or the level pattern break, which are rarer here.
  const Dsn d(256, 7);  // p = 8, 256 = 32 * 8 -> r = 0
  EXPECT_EQ(d.r(), 0u);
  const auto stats = compute_degree_stats(d.topology().graph);
  const std::uint64_t deg5 = stats.histogram.size() > 5 ? stats.histogram[5] : 0;
  EXPECT_LE(deg5, d.p());
}

TEST(Dsn, TopologyNameAndKind) {
  const Dsn d(64, 5);
  EXPECT_EQ(d.topology().name, "dsn-5-64");
  EXPECT_EQ(d.topology().kind, TopologyKind::kDsn);
  EXPECT_EQ(d.topology().link_roles.size(), d.topology().graph.num_links());
}

TEST(Dsn, SmallerXMeansFewerLinks) {
  const Dsn d1(256, 2);
  const Dsn d2(256, 7);
  EXPECT_LT(d1.topology().graph.num_links(), d2.topology().graph.num_links());
}

TEST(Dsn, FactoryMatchesClass) {
  const Topology t = make_dsn(128, 6);
  const Dsn d(128, 6);
  EXPECT_EQ(t.graph.num_links(), d.topology().graph.num_links());
}

}  // namespace
}  // namespace dsn
