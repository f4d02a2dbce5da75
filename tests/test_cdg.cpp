// Channel-dependency-graph tests: the Theorem 3 deadlock-freedom claim for
// the extended DSN routing (positive), the basic scheme as a negative
// control, acyclicity of up*/down*, and unit tests of the CDG container.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/updown.hpp"

namespace dsn {
namespace {

TEST(Cdg, EmptyIsAcyclic) {
  ChannelDependencyGraph cdg;
  EXPECT_TRUE(cdg.is_acyclic());
  EXPECT_EQ(cdg.num_channels(), 0u);
}

TEST(Cdg, SimpleChainIsAcyclic) {
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}, {2, 3, 0}});
  EXPECT_TRUE(cdg.is_acyclic());
  EXPECT_EQ(cdg.num_channels(), 3u);
  EXPECT_EQ(cdg.num_dependencies(), 2u);
}

TEST(Cdg, TriangleOfRoutesIsCyclic) {
  // Three two-hop routes around a 3-cycle create the classic deadlock cycle.
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{1, 2, 0}, {2, 0, 0}});
  cdg.add_route({{2, 0, 0}, {0, 1, 0}});
  EXPECT_FALSE(cdg.is_acyclic());
  const auto cycle = cdg.find_cycle();
  EXPECT_GE(cycle.size(), 3u);
}

TEST(Cdg, ChannelClassesSeparateDependencies) {
  // The same physical cycle split across two classes has no cycle.
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{1, 2, 0}, {2, 0, 1}});  // breaks into class 1
  cdg.add_route({{2, 0, 1}, {0, 1, 1}});
  EXPECT_TRUE(cdg.is_acyclic());
}

TEST(Cdg, DuplicateDependenciesCollapsed) {
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  EXPECT_EQ(cdg.num_dependencies(), 1u);
}

TEST(Cdg, UseCountsAccumulatePerTraversal) {
  // Dependencies dedupe, but use counts (the static channel load) must keep
  // counting every traversal.
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{1, 2, 0}, {2, 3, 0}});
  ASSERT_EQ(cdg.num_channels(), 3u);
  const auto& channels = cdg.channels();
  const auto& counts = cdg.use_counts();
  ASSERT_EQ(counts.size(), channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    std::uint64_t expected = 0;
    if (channels[i] == Channel{0, 1, 0}) expected = 2;
    if (channels[i] == Channel{1, 2, 0}) expected = 3;
    if (channels[i] == Channel{2, 3, 0}) expected = 1;
    EXPECT_EQ(counts[i], expected) << "channel " << channels[i].from << "->" << channels[i].to;
  }
}

TEST(Cdg, HasDependencyReflectsRecordedEdgesOnly) {
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}, {2, 3, 0}});
  EXPECT_TRUE(cdg.has_dependency({0, 1, 0}, {1, 2, 0}));
  EXPECT_TRUE(cdg.has_dependency({1, 2, 0}, {2, 3, 0}));
  EXPECT_FALSE(cdg.has_dependency({0, 1, 0}, {2, 3, 0}));  // not consecutive
  EXPECT_FALSE(cdg.has_dependency({1, 2, 0}, {0, 1, 0}));  // wrong direction
  EXPECT_FALSE(cdg.has_dependency({9, 8, 0}, {8, 7, 0}));  // unknown channels
  EXPECT_FALSE(cdg.has_dependency({0, 1, 1}, {1, 2, 1}));  // wrong class
}

TEST(Cdg, MergeReindexesDedupesAndAddsLoads) {
  // Two shards sharing a channel: the merge must re-index, collapse the
  // duplicate dependency, and sum the shared channel's load.
  ChannelDependencyGraph a;
  a.add_route({{0, 1, 0}, {1, 2, 0}});
  ChannelDependencyGraph b;
  b.add_route({{0, 1, 0}, {1, 2, 0}});  // duplicate of a's route
  b.add_route({{1, 2, 0}, {2, 3, 0}});  // new channel + dependency
  a.merge(b);
  EXPECT_EQ(a.num_channels(), 3u);
  EXPECT_EQ(a.num_dependencies(), 2u);
  EXPECT_TRUE(a.has_dependency({0, 1, 0}, {1, 2, 0}));
  EXPECT_TRUE(a.has_dependency({1, 2, 0}, {2, 3, 0}));
  std::uint64_t total = 0;
  for (const std::uint64_t c : a.use_counts()) total += c;
  EXPECT_EQ(total, 2u + 2u + 2u);  // 0->1 twice, 1->2 three times, 2->3 once
}

TEST(Cdg, MergeMatchesSingleGraphBuild) {
  // Sharded build + merge must agree with a monolithic build on every
  // observable: channel set, dependency count, per-channel loads, acyclicity.
  const Dsn d(96, 2);
  DsnRouter router(d);
  ChannelDependencyGraph mono, left, right;
  for (NodeId s = 0; s < d.n(); ++s) {
    for (NodeId t = 0; t < d.n(); ++t) {
      if (s == t) continue;
      const auto channels = dsn_route_channels_extended(d, router.route(s, t));
      mono.add_route(channels);
      (s < d.n() / 2 ? left : right).add_route(channels);
    }
  }
  left.merge(right);
  ASSERT_EQ(left.num_channels(), mono.num_channels());
  EXPECT_EQ(left.num_dependencies(), mono.num_dependencies());
  EXPECT_EQ(left.is_acyclic(), mono.is_acyclic());
  // Loads agree channel by channel (indices may differ between the builds).
  for (std::size_t i = 0; i < mono.channels().size(); ++i) {
    const Channel& c = mono.channels()[i];
    const auto& lc = left.channels();
    const auto it = std::find(lc.begin(), lc.end(), c);
    ASSERT_NE(it, lc.end());
    EXPECT_EQ(left.use_counts()[static_cast<std::size_t>(it - lc.begin())],
              mono.use_counts()[i]);
  }
}

TEST(Cdg, FindShortestCycleReturnsMinimalWitness) {
  // A 2-cycle buried alongside a long 5-cycle: the shortest-cycle search must
  // return the 2-cycle, and its edges must all be real dependencies.
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 0, 0}, {0, 1, 0}});  // 2-cycle a <-> b
  cdg.add_route({{2, 3, 0}, {3, 4, 0}});
  cdg.add_route({{3, 4, 0}, {4, 5, 0}});
  cdg.add_route({{4, 5, 0}, {5, 6, 0}});
  cdg.add_route({{5, 6, 0}, {6, 2, 0}});
  cdg.add_route({{6, 2, 0}, {2, 3, 0}});
  ASSERT_FALSE(cdg.is_acyclic());
  const auto cycle = cdg.find_shortest_cycle();
  ASSERT_EQ(cycle.size(), 2u);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_TRUE(cdg.has_dependency(cycle[i], cycle[(i + 1) % cycle.size()]));
  }
}

TEST(Cdg, FindShortestCycleWorkCapFallsBackToDfs) {
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.add_route({{1, 2, 0}, {2, 0, 0}});
  cdg.add_route({{2, 0, 0}, {0, 1, 0}});
  // Work cap 0 forces the DFS fallback; the witness must still be a cycle.
  const auto cycle = cdg.find_shortest_cycle(/*work_cap=*/0);
  ASSERT_GE(cycle.size(), 2u);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_TRUE(cdg.has_dependency(cycle[i], cycle[(i + 1) % cycle.size()]));
  }
}

TEST(Cdg, ReserveDoesNotDisturbContents) {
  ChannelDependencyGraph cdg;
  cdg.add_route({{0, 1, 0}, {1, 2, 0}});
  cdg.reserve(4096);
  cdg.add_route({{1, 2, 0}, {2, 0, 0}});
  EXPECT_EQ(cdg.num_channels(), 3u);
  EXPECT_TRUE(cdg.has_dependency({0, 1, 0}, {1, 2, 0}));
  EXPECT_TRUE(cdg.has_dependency({1, 2, 0}, {2, 0, 0}));
}

TEST(Cdg, IndexSurvivesRehashGrowth) {
  // Insert enough distinct channels to force several probe-table growths,
  // then verify every channel still resolves (lookups after rehash).
  ChannelDependencyGraph cdg;
  for (NodeId i = 0; i < 5000; ++i) {
    cdg.add_route({{i, i + 1, 0}, {i + 1, i + 2, 0}});
  }
  EXPECT_EQ(cdg.num_channels(), 5001u);
  EXPECT_TRUE(cdg.has_dependency({0, 1, 0}, {1, 2, 0}));
  EXPECT_TRUE(cdg.has_dependency({4999, 5000, 0}, {5000, 5001, 0}));
  EXPECT_FALSE(cdg.has_dependency({5000, 5001, 0}, {4999, 5000, 0}));
}

// --------------------------------------------------------------------------
// add_route's prefix skip against an independent reference.
// --------------------------------------------------------------------------

/// Test-local CDG that indexes every hop: a std::map from channel to
/// first-seen id, use counts, and dependency lists in first-seen order.
struct ReferenceCdg {
  std::map<Channel, std::uint32_t> ids;
  std::vector<Channel> channels;
  std::vector<std::uint64_t> uses;
  std::vector<std::vector<std::uint32_t>> deps;
  std::size_t num_deps = 0;

  std::uint32_t id(const Channel& c) {
    const auto [it, fresh] = ids.emplace(c, static_cast<std::uint32_t>(channels.size()));
    if (fresh) {
      channels.push_back(c);
      uses.push_back(0);
      deps.emplace_back();
    }
    return it->second;
  }

  void depend(std::uint32_t a, std::uint32_t b) {
    if (a == b || std::find(deps[a].begin(), deps[a].end(), b) != deps[a].end()) return;
    deps[a].push_back(b);
    ++num_deps;
  }

  void add_route(const std::vector<Channel>& route) {
    for (std::size_t i = 0; i < route.size(); ++i) {
      const std::uint32_t cur = id(route[i]);
      ++uses[cur];
      if (i > 0) depend(id(route[i - 1]), cur);
    }
  }

  void merge(const ReferenceCdg& other) {
    for (std::size_t i = 0; i < other.channels.size(); ++i)
      uses[id(other.channels[i])] += other.uses[i];
    for (std::size_t i = 0; i < other.channels.size(); ++i)
      for (const std::uint32_t j : other.deps[i])
        depend(id(other.channels[i]), id(other.channels[j]));
  }

  /// Acyclic iff repeatedly deleting dependency-free channels empties it.
  bool acyclic() const {
    std::vector<std::uint32_t> outdeg(deps.size());
    std::vector<std::vector<std::uint32_t>> preds(deps.size());
    for (std::uint32_t a = 0; a < deps.size(); ++a) {
      outdeg[a] = static_cast<std::uint32_t>(deps[a].size());
      for (const std::uint32_t b : deps[a]) preds[b].push_back(a);
    }
    std::vector<std::uint32_t> sinks;
    for (std::uint32_t a = 0; a < deps.size(); ++a)
      if (outdeg[a] == 0) sinks.push_back(a);
    std::size_t removed = 0;
    while (!sinks.empty()) {
      const std::uint32_t b = sinks.back();
      sinks.pop_back();
      ++removed;
      for (const std::uint32_t a : preds[b])
        if (--outdeg[a] == 0) sinks.push_back(a);
    }
    return removed == deps.size();
  }

  /// A ChannelDependencyGraph with exactly these ids and dependency lists,
  /// built from one-channel routes (ids in order), then one two-channel
  /// route per dependency in list order. Its cycle searches are the
  /// reference answers, since they depend only on ids and list order.
  ChannelDependencyGraph replay() const {
    ChannelDependencyGraph g;
    for (const Channel& c : channels) g.add_route({c});
    for (std::uint32_t a = 0; a < deps.size(); ++a)
      for (const std::uint32_t b : deps[a]) g.add_route({channels[a], channels[b]});
    return g;
  }
};

void expect_matches_reference(const ChannelDependencyGraph& cdg, const ReferenceCdg& ref) {
  ASSERT_EQ(cdg.channels(), ref.channels);
  ASSERT_EQ(cdg.use_counts(), ref.uses);
  ASSERT_EQ(cdg.num_dependencies(), ref.num_deps);
  for (std::uint32_t a = 0; a < ref.deps.size(); ++a)
    for (const std::uint32_t b : ref.deps[a])
      ASSERT_TRUE(cdg.has_dependency(ref.channels[a], ref.channels[b]));
  EXPECT_EQ(cdg.is_acyclic(), ref.acyclic());
  const ChannelDependencyGraph replay = ref.replay();
  ASSERT_EQ(replay.channels(), ref.channels);
  ASSERT_EQ(replay.num_dependencies(), ref.num_deps);
  EXPECT_EQ(cdg.find_cycle(), replay.find_cycle());
  EXPECT_EQ(cdg.find_shortest_cycle(), replay.find_shortest_cycle());
}

/// Feed one route to both graphs.
void add_both(ChannelDependencyGraph& cdg, ReferenceCdg& ref, const std::vector<Channel>& r) {
  cdg.add_route(r);
  ref.add_route(r);
}

TEST(Cdg, PrefixSkipMatchesReferenceOnFuzzedRoutes) {
  // Routes over 6 nodes and 2 classes, so channels repeat and cycles form.
  // Each step extends or cuts a random prefix of the previous route, repeats
  // it, sends an empty or random route (with repeated channels), merges in
  // a separately built graph, or moves the graph.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto channel = [&] {
      return Channel{static_cast<NodeId>(rng.next_below(6)),
                     static_cast<NodeId>(rng.next_below(6)),
                     static_cast<std::uint8_t>(rng.next_below(2))};
    };
    const auto random_route = [&] {
      std::vector<Channel> r;
      for (std::uint64_t i = 0, len = rng.next_below(7); i < len; ++i)
        r.push_back(!r.empty() && rng.next_below(4) == 0 ? r.back() : channel());
      return r;
    };
    ChannelDependencyGraph cdg;
    ReferenceCdg ref;
    std::vector<Channel> prev;
    for (int step = 0; step < 300; ++step) {
      std::vector<Channel> r;
      switch (rng.next_below(8)) {
        case 0:  // identical to the previous route
          r = prev;
          break;
        case 1:  // shorter: a strict prefix of the previous route
          r.assign(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(
                                                   rng.next_below(prev.size() + 1)));
          break;
        case 2:  // empty
          break;
        case 3:  // a fresh random route
          r = random_route();
          break;
        case 4: {  // merge a separately built graph, then keep going
          ChannelDependencyGraph other;
          ReferenceCdg other_ref;
          for (int i = 0, k = static_cast<int>(rng.next_below(5)); i < k; ++i)
            add_both(other, other_ref, random_route());
          cdg.merge(other);
          ref.merge(other_ref);
          continue;
        }
        case 5: {  // moves keep the remembered route valid
          ChannelDependencyGraph moved = std::move(cdg);
          cdg = std::move(moved);
          continue;
        }
        default: {  // keep a random prefix, then append a random tail
          r.assign(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(
                                                   rng.next_below(prev.size() + 1)));
          for (const Channel& c : random_route()) r.push_back(c);
          break;
        }
      }
      add_both(cdg, ref, r);
      prev = r;
      if (step % 50 == 49) {
        expect_matches_reference(cdg, ref);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(Cdg, PrefixSkipMatchesReferenceOnAllPairs) {
  // Every source's routes in destination order, as the all-pairs sweeps
  // feed them: most of each route repeats its predecessor.
  const auto check = [](const std::string& what, NodeId n, const auto& channels_of) {
    ChannelDependencyGraph cdg;
    ReferenceCdg ref;
    for (NodeId s = 0; s < n; ++s)
      for (NodeId t = 0; t < n; ++t)
        if (s != t) add_both(cdg, ref, channels_of(s, t));
    SCOPED_TRACE(what);
    expect_matches_reference(cdg, ref);
  };
  for (const std::uint32_t n : {64u, 100u, 256u}) {
    const Dsn d(n, dsn_default_x(n));
    const DsnRouter router(d);
    check("dsn basic n = " + std::to_string(n), n, [&](NodeId s, NodeId t) {
      return dsn_route_channels_basic(router.route(s, t));
    });
    check("dsn extended n = " + std::to_string(n), n, [&](NodeId s, NodeId t) {
      return dsn_route_channels_extended(d, router.route(s, t));
    });
  }
  const Topology rr = make_topology_by_name("random-regular", 48, 3);
  const UpDownRouting ud(CsrView(rr.graph), 0, ThreadPool::global());
  check("up*/down* random-regular-48", 48, [&](NodeId s, NodeId t) {
    const std::vector<NodeId> path = ud.route(s, t);
    std::vector<Channel> out;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) out.push_back({path[i], path[i + 1], 0});
    return out;
  });
}

// --------------------------------------------------------------------------
// Theorem 3 and the negative control, across sizes.
// --------------------------------------------------------------------------

class DsnCdgTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DsnCdgTest, ExtendedSchemeIsDeadlockFree) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const auto cdg = build_dsn_cdg(d, /*extended=*/true);
  EXPECT_TRUE(cdg.is_acyclic()) << "n = " << n;
}

TEST_P(DsnCdgTest, BasicSchemeHasCycles) {
  const std::uint32_t n = GetParam();
  const Dsn d(n, dsn_default_x(n));
  const auto cdg = build_dsn_cdg(d, /*extended=*/false);
  EXPECT_FALSE(cdg.is_acyclic()) << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, DsnCdgTest, ::testing::Values(32u, 64u, 100u, 128u));

TEST(DsnCdg, ExtendedDeadlockFreeWithNearestPrework) {
  // The Fact 3 PRE-WORK variant walks succ links in PRE-WORK as well; the
  // class separation must still hold.
  const Dsn d(64, dsn_default_x(64));
  const auto cdg = build_dsn_cdg(d, /*extended=*/true, /*nearest_prework=*/true);
  EXPECT_TRUE(cdg.is_acyclic());
}

TEST(DsnCdg, ChannelMappingUsesExpectedClasses) {
  const Dsn d(64, dsn_default_x(64));
  DsnRouter router(d);
  bool saw_up = false, saw_main = false, saw_finish = false, saw_extra = false;
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId t = 0; t < 64; ++t) {
      if (s == t) continue;
      for (const Channel& c : dsn_route_channels_extended(d, router.route(s, t))) {
        switch (c.cls) {
          case kClassUp: saw_up = true; break;
          case kClassMain: saw_main = true; break;
          case kClassFinish: saw_finish = true; break;
          case kClassExtra: saw_extra = true; break;
          default: FAIL() << "unknown class";
        }
      }
    }
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_finish);
  EXPECT_TRUE(saw_extra);
}

TEST(DsnCdg, DsnDExpressRoutingAlsoDeadlockFree) {
  // Extension result the paper defers to future work: the DSN-D express
  // routing, with express hops riding their phase's channel class, keeps the
  // CDG acyclic (express links only shorten the monotone local walks).
  for (const std::uint32_t n : {64u, 100u, 128u}) {
    const DsnD dd(n, 2);
    ChannelDependencyGraph cdg;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        cdg.add_route(dsn_route_channels_extended(dd.base(), route_dsn_d(dd, s, t)));
      }
    }
    EXPECT_TRUE(cdg.is_acyclic()) << "n = " << n;
  }
}

// --------------------------------------------------------------------------
// up*/down* escape layer.
// --------------------------------------------------------------------------

class UpDownCdgTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UpDownCdgTest, UpDownIsDeadlockFree) {
  const Topology topo = make_topology_by_name(GetParam(), 64, 5);
  const analyze::RouteAnalysis ra =
      analyze::analyze_topology_routes(topo, analyze::RoutingFamily::kUpDown);
  EXPECT_TRUE(ra.cdg_acyclic) << GetParam();
  EXPECT_GT(ra.cdg_dependencies, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Topologies, UpDownCdgTest,
                         ::testing::Values("dsn", "torus", "random", "ring",
                                           "random-regular"));

}  // namespace
}  // namespace dsn
