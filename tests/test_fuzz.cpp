// Randomized property sweeps ("fuzz" tests): random (n, x, seed) combinations
// exercising construction invariants and routing correctness on sampled
// pairs, far beyond the hand-picked sizes of the targeted suites.
#include <gtest/gtest.h>

#include <vector>

#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

TEST(Fuzz, RandomDsnParametersAlwaysValid) {
  Rng rng(0xDEAD);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(16 + rng.next_below(2000));
    const std::uint32_t p = ilog2_ceil(n);
    const auto x = static_cast<std::uint32_t>(1 + rng.next_below(p - 1));
    const Dsn d(n, x);

    // Structural invariants that must hold for every parameterization.
    EXPECT_TRUE(is_connected(d.topology().graph)) << n << "," << x;
    const auto deg = compute_degree_stats(d.topology().graph);
    EXPECT_LE(deg.max_degree, 5u) << n << "," << x;
    EXPECT_LE(deg.avg_degree, 4.0 + 1e-9) << n << "," << x;
    for (NodeId i = 0; i < d.n(); ++i) {
      const NodeId sc = d.shortcut_target(i);
      if (d.level(i) <= x) {
        ASSERT_NE(sc, kInvalidNode);
        EXPECT_EQ(d.level(sc), d.level(i) + 1);
        EXPECT_GE(ring_cw_distance(i, sc, n), d.shortcut_min_span(d.level(i)));
      } else {
        EXPECT_EQ(sc, kInvalidNode);
      }
    }
  }
}

TEST(Fuzz, RandomPairsRouteCorrectly) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(32 + rng.next_below(3000));
    const std::uint32_t p = ilog2_ceil(n);
    const auto x = static_cast<std::uint32_t>(1 + rng.next_below(p - 1));
    const Dsn d(n, x);
    DsnRoutingOptions opt;
    opt.avoid_overshoot = rng.bernoulli(0.5);
    opt.nearest_prework = rng.bernoulli(0.5);
    const DsnRouter router(d, opt);
    std::vector<NodeId> sources;
    for (int pair = 0; pair < 50; ++pair) {
      const auto s = static_cast<NodeId>(rng.next_below(n));
      const auto t = static_cast<NodeId>(rng.next_below(n));
      sources.push_back(s);
      const Route r = router.route(s, t);
      EXPECT_FALSE(r.used_fallback) << "n=" << n << " x=" << x << " " << s << "->" << t;
      // Universal sanity cap: every route is bounded by the FINISH worst
      // case for its x (n/2^x local walk) plus the phase bounds.
      const std::uint64_t finish_bound = (n >> x) + p + d.r() + 2;
      EXPECT_LE(r.length(), 2ull * p + finish_bound + p)
          << "n=" << n << " x=" << x << " " << s << "->" << t;
    }
    // Every route from the sampled sources is well formed: it starts at s,
    // chains to t over physical links, and its phases never decrease.
    const analyze::RouteAnalysis ra = analyze::analyze_route_function(
        d.topology().graph, [&](NodeId s, NodeId t, Route& out) { router.route(s, t, out); },
        [](const Route& r, std::vector<Channel>& out) { dsn_route_channels_basic(r, out); }, 0,
        {}, {}, sources);
    EXPECT_TRUE(ra.all_reachable && ra.hops_on_links && ra.phases_ordered)
        << "n=" << n << " x=" << x << "\n" << analyze::summary(ra);
  }
}

TEST(Fuzz, PremiseSizesMeetFact2Bound) {
  // For x > p - log p (sampled randomly), the 3p + r routing-diameter bound
  // must hold on sampled pairs.
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::uint32_t>(64 + rng.next_below(4000));
    const std::uint32_t p = ilog2_ceil(n);
    const std::uint32_t logp = ilog2_ceil(p);
    const std::uint32_t lo = p - logp + 1;  // smallest premise-satisfying x
    const auto x =
        static_cast<std::uint32_t>(lo + rng.next_below(p - lo));  // in [lo, p-1]
    const Dsn d(n, x);
    const DsnRouter router(d);
    for (int pair = 0; pair < 80; ++pair) {
      const auto s = static_cast<NodeId>(rng.next_below(n));
      const auto t = static_cast<NodeId>(rng.next_below(n));
      const Route r = router.route(s, t);
      EXPECT_LE(r.length(), 3 * p + d.r())
          << "n=" << n << " x=" << x << " " << s << "->" << t;
    }
  }
}

TEST(Fuzz, RandomMatchingTopologiesStayFourRegular) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    const auto half = 16 + rng.next_below(500);
    const auto n = static_cast<std::uint32_t>(2 * half);  // even
    const Topology t = make_dln_random(n, 2, 2, rng.next());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(t.graph.degree(v), 4u) << "n=" << n << " node " << v;
    }
    EXPECT_TRUE(is_connected(t.graph)) << n;
  }
}

}  // namespace
}  // namespace dsn
