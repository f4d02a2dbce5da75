// Tests for the §V extensions: DSN-E (Up/Extra links), DSN-D-x (express
// links), flexible DSN (major/minor nodes).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dsn/common/math.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace dsn {
namespace {

// ---------------------------------------------------------------------------
// DSN-E
// ---------------------------------------------------------------------------

TEST(DsnE, UsesFullShortcutSet) {
  const DsnE e(64);
  EXPECT_EQ(e.base().x(), e.base().p() - 1);
}

TEST(DsnE, UpLinksParallelToRing) {
  const DsnE e(64);
  const Dsn& base = e.base();
  for (NodeId i = 0; i < 64; ++i) {
    const LinkId up = e.up_link(i);
    ASSERT_NE(up, kInvalidLink);
    const auto [a, b] = e.topology().graph.link_endpoints(up);
    EXPECT_TRUE((a == i && b == base.pred(i)) || (b == i && a == base.pred(i)));
    EXPECT_EQ(e.topology().link_roles[up], LinkRole::kUp);
  }
}

TEST(DsnE, ExtraLinksOnlyNearZero) {
  const DsnE e(64);
  const std::uint32_t p = e.base().p();
  EXPECT_EQ(e.extra_link(0), kInvalidLink);
  for (NodeId i = 1; i <= 2 * p; ++i) {
    const LinkId extra = e.extra_link(i);
    ASSERT_NE(extra, kInvalidLink) << i;
    const auto [a, b] = e.topology().graph.link_endpoints(extra);
    EXPECT_EQ(std::minmax(a, b), std::minmax(i, i - 1));
    EXPECT_EQ(e.topology().link_roles[extra], LinkRole::kExtra);
  }
  EXPECT_EQ(e.extra_link(2 * p + 1), kInvalidLink);
}

TEST(DsnE, LinkCountAccounting) {
  const DsnE e(64);
  const Dsn base(64, dsn_default_x(64));
  // Base links + n Up links + 2p Extra links.
  EXPECT_EQ(e.topology().graph.num_links(),
            base.topology().graph.num_links() + 64 + 2 * base.p());
}

TEST(DsnE, SameDiameterAsBase) {
  const DsnE e(128);
  const Dsn base(128, dsn_default_x(128));
  // Up/Extra links parallel existing ring links: hop-count metrics unchanged.
  const auto se = compute_path_stats(e.topology().graph);
  const auto sb = compute_path_stats(base.topology().graph);
  EXPECT_EQ(se.diameter, sb.diameter);
  EXPECT_DOUBLE_EQ(se.avg_shortest_path, sb.avg_shortest_path);
}

// ---------------------------------------------------------------------------
// DSN-D
// ---------------------------------------------------------------------------

class DsnDTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DsnDTest, ExpressSpanIsCeilPOverX) {
  const std::uint32_t xd = GetParam();
  const DsnD d(256, xd);
  EXPECT_EQ(d.q(), ceil_div(d.base().p(), xd));
  EXPECT_EQ(d.express_per_super_node(), xd);
}

TEST_P(DsnDTest, ExpressLinksConnectMultiplesOfQ) {
  const std::uint32_t xd = GetParam();
  const DsnD d(256, xd);
  const std::uint32_t q = d.q();
  for (LinkId l = 0; l < d.topology().graph.num_links(); ++l) {
    if (d.topology().link_roles[l] != LinkRole::kDLocal) continue;
    const auto [a, b] = d.topology().graph.link_endpoints(l);
    EXPECT_EQ(a % q, 0u);
    EXPECT_TRUE(b % q == 0 || b == 0) << a << "->" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Xd, DsnDTest, ::testing::Values(1u, 2u, 3u));

TEST(DsnD, BaseUsesReducedX) {
  const DsnD d(256, 2);
  const std::uint32_t p = d.base().p();  // 8
  EXPECT_EQ(d.base().x(), p - ilog2_ceil(p));  // 8 - 3 = 5
}

TEST(DsnD, ReducesDiameterVsBasicSameX) {
  // DSN-D-2 should not be worse than the plain DSN with the same reduced x.
  const DsnD d(512, 2);
  const Dsn plain(512, d.base().x());
  const auto sd = compute_path_stats(d.topology().graph);
  const auto sp = compute_path_stats(plain.topology().graph);
  EXPECT_LE(sd.diameter, sp.diameter);
  EXPECT_LT(sd.avg_shortest_path, sp.avg_shortest_path);
}

TEST(DsnD, RejectsBadParams) {
  EXPECT_THROW(DsnD(256, 0), PreconditionError);
  EXPECT_THROW(DsnD(256, 8), PreconditionError);  // xd >= p
}

// ---------------------------------------------------------------------------
// flexible DSN
// ---------------------------------------------------------------------------

TEST(FlexDsn, LayoutAndMapping) {
  const FlexDsn f(60, 5, {10, 20, 30, 40});
  EXPECT_EQ(f.num_major(), 60u);
  EXPECT_EQ(f.num_minor(), 4u);
  EXPECT_EQ(f.num_total(), 64u);
  // Majors keep their ring order; phys/major maps are inverse of each other.
  for (NodeId m = 0; m < 60; ++m) {
    EXPECT_EQ(f.major_of(f.phys_of(m)), m);
  }
  std::uint32_t minors = 0;
  for (NodeId ph = 0; ph < f.num_total(); ++ph) {
    if (!f.is_major(ph)) ++minors;
  }
  EXPECT_EQ(minors, 4u);
}

TEST(FlexDsn, MinorsSitAfterTheirMajors) {
  const FlexDsn f(60, 5, {10});
  const NodeId phys10 = f.phys_of(10);
  EXPECT_FALSE(f.is_major(phys10 + 1));
  EXPECT_EQ(f.preceding_major(phys10 + 1), phys10);
  EXPECT_EQ(f.preceding_major(phys10), phys10);
}

TEST(FlexDsn, MinorsHaveDegreeTwo) {
  const FlexDsn f(60, 5, {0, 30, 59});
  for (NodeId ph = 0; ph < f.num_total(); ++ph) {
    if (!f.is_major(ph)) {
      EXPECT_EQ(f.topology().graph.degree(ph), 2u) << "minor " << ph;
    }
  }
}

TEST(FlexDsn, ConnectedAndSmallDiameter) {
  const FlexDsn f(1020, 9, {10, 20, 30, 40});  // the paper's 1024 = 1020 + 4 example
  EXPECT_EQ(f.num_total(), 1024u);
  const auto s = compute_path_stats(f.topology().graph);
  EXPECT_TRUE(s.connected);
  const Dsn plain(1020, 9);
  const auto sp = compute_path_stats(plain.topology().graph);
  // Four minors can only stretch paths by a small constant.
  EXPECT_LE(s.diameter, sp.diameter + 4);
}

TEST(FlexDsn, RejectsBadInsertLists) {
  EXPECT_THROW(FlexDsn(60, 5, {10, 10}), PreconditionError);   // duplicate
  EXPECT_THROW(FlexDsn(60, 5, {20, 10}), PreconditionError);   // not sorted
  EXPECT_THROW(FlexDsn(60, 5, {60}), PreconditionError);       // out of range
  EXPECT_NO_THROW(FlexDsn(60, 5, {}));
}

// ---------------------------------------------------------------------------
// Parameters recovered from a topology's name
// ---------------------------------------------------------------------------

TEST(DsnParams, ParsesEveryDsnKindAndRejectsOtherNames) {
  const auto dsn = parse_dsn_params(make_dsn(100, 6));
  ASSERT_TRUE(dsn.has_value());
  EXPECT_EQ(dsn->x, 6u);
  EXPECT_EQ(dsn->p, 7u);
  EXPECT_EQ(parse_dsn_params(DsnE(100).topology())->x, 6u);
  EXPECT_TRUE(parse_dsn_params(make_dsn_bidir(100))->mirrored);
  const auto dd = parse_dsn_params(DsnD(100, 2).topology());
  ASSERT_TRUE(dd.has_value());
  EXPECT_EQ(dd->xd, 2u);
  EXPECT_EQ(dd->x, DsnD(100, 2).base().x());

  // Names that do not encode what the kind needs: a wrong n, an x of 0, an
  // x that only fits after narrowing to 32 bits (2^32 + 6), an express count
  // of p, and a kind outside the DSN family.
  for (const auto& [name, kind] : std::vector<std::pair<std::string, TopologyKind>>{
           {"dsn-6-99", TopologyKind::kDsn},
           {"dsn-0-100", TopologyKind::kDsn},
           {"dsn-4294967302-100", TopologyKind::kDsn},
           {"dsn-e-99", TopologyKind::kDsnE},
           {"dsn-d-7-100", TopologyKind::kDsnD},
           {"dsn-d-4294967298-100", TopologyKind::kDsnD},
           {"dsn-6-100", TopologyKind::kRing}}) {
    Topology topo = make_dsn(100, 6);
    topo.name = name;
    topo.kind = kind;
    EXPECT_FALSE(parse_dsn_params(topo).has_value()) << name;
  }
}

}  // namespace
}  // namespace dsn
