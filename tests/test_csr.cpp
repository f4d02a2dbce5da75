// Equivalence tests for the CSR snapshot and the 64-way bit-parallel MS-BFS:
// every distance, PathStats field and eccentricity produced by the new engine
// must match the adjacency-list BFS exactly — on Watts-Strogatz, DSN, DSN-E,
// ring and disconnected graphs, including batch tails (n % 64 != 0) and
// graphs smaller than one batch (n < 64). The orbit-reduced all-pairs sweep
// (rotation_period) is checked against the reference, against relabeled
// copies that must take the full sweep, and against the Moore-type lower
// bounds, which need no reference at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/graph.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/graph/msbfs.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the pre-CSR per-source adjacency-list BFS.
// ---------------------------------------------------------------------------

PathStats reference_path_stats(const Graph& g) {
  PathStats stats;
  const NodeId n = g.num_nodes();
  if (n == 0) return stats;
  bool all_reachable = true;
  __uint128_t total = 0;
  std::uint64_t pairs = 0;
  for (NodeId src = 0; src < n; ++src) {
    const auto dist = bfs_distances(g, src);
    for (NodeId v = 0; v < n; ++v) {
      if (v == src) continue;
      if (dist[v] == kUnreachable) {
        all_reachable = false;
        continue;
      }
      stats.diameter = std::max(stats.diameter, dist[v]);
      total += dist[v];
      ++pairs;
      if (dist[v] >= stats.hop_histogram.size()) stats.hop_histogram.resize(dist[v] + 1, 0);
      ++stats.hop_histogram[dist[v]];
    }
  }
  stats.connected = n <= 1 || all_reachable;
  stats.avg_shortest_path =
      pairs == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(pairs);
  return stats;
}

std::vector<std::uint32_t> reference_eccentricities(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> ecc(n, 0);
  for (NodeId src = 0; src < n; ++src) {
    const auto dist = bfs_distances(g, src);
    std::uint32_t m = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kUnreachable) {
        m = kUnreachable;
        break;
      }
      m = std::max(m, dist[v]);
    }
    ecc[src] = m;
  }
  return ecc;
}

/// Per-lane distances of one msbfs_sweep batch, node-major:
/// dist[v * sources.size() + i] = hops from sources[i] to v (kUnreachable
/// when lane i never reaches v). Fails the test if a lane reports a node
/// twice.
std::vector<std::uint32_t> sweep_distances(const CsrView& csr,
                                           std::span<const NodeId> sources,
                                           MsBfsScratch& scratch) {
  const std::size_t b = sources.size();
  std::vector<std::uint32_t> dist(static_cast<std::size_t>(csr.num_nodes()) * b,
                                  kUnreachable);
  msbfs_sweep(csr, sources, scratch, [&](NodeId v, std::uint32_t level, std::uint64_t fresh) {
    for (; fresh != 0; fresh &= fresh - 1) {
      std::uint32_t& d = dist[static_cast<std::size_t>(v) * b + std::countr_zero(fresh)];
      EXPECT_EQ(d, kUnreachable) << "node " << v << " reached twice";
      d = level;
    }
  });
  for (std::size_t i = 0; i < b; ++i) dist[static_cast<std::size_t>(sources[i]) * b + i] = 0;
  return dist;
}

/// PathStats equal field for field.
void expect_same_stats(const PathStats& got, const PathStats& expected) {
  EXPECT_EQ(got.connected, expected.connected);
  EXPECT_EQ(got.diameter, expected.diameter);
  EXPECT_EQ(got.avg_shortest_path, expected.avg_shortest_path);
  EXPECT_EQ(got.hop_histogram, expected.hop_histogram);
}

/// Assert that every kernel of the new engine agrees with the adjacency-list
/// reference on `g`, for every source, bit for bit.
void expect_engine_matches(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const NodeId n = g.num_nodes();
  const CsrView csr(g);

  // CSR snapshot preserves node count, arcs, and adjacency order.
  ASSERT_EQ(csr.num_nodes(), n);
  ASSERT_EQ(csr.num_arcs(), 2 * g.num_links());
  for (NodeId u = 0; u < n; ++u) {
    const auto adj = g.neighbors(u);
    const auto nbrs = csr.neighbors(u);
    const auto links = csr.links(u);
    ASSERT_EQ(nbrs.size(), adj.size());
    ASSERT_EQ(links.size(), adj.size());
    ASSERT_EQ(csr.degree(u), adj.size());
    for (std::size_t k = 0; k < adj.size(); ++k) {
      EXPECT_EQ(nbrs[k], adj[k].to);
      EXPECT_EQ(links[k], adj[k].link);
    }
  }

  // MS-BFS distances: whole-range batches (exercising the n % 64 tail, which
  // is a one-source batch when n % 64 == 1).
  std::vector<std::uint32_t> reference;
  MsBfsScratch scratch;
  for (NodeId lo = 0; lo < n; lo += kMsBfsBatch) {
    const NodeId hi = std::min<NodeId>(n, lo + kMsBfsBatch);
    std::vector<NodeId> sources(hi - lo);
    std::iota(sources.begin(), sources.end(), lo);
    const auto dist = sweep_distances(csr, sources, scratch);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      reference = bfs_distances(g, sources[i]);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(dist[static_cast<std::size_t>(v) * sources.size() + i], reference[v])
            << "source " << sources[i] << " node " << v;
      }
    }
  }

  // Single-source CSR BFS agrees everywhere too.
  for (NodeId src = 0; src < n; ++src) {
    EXPECT_EQ(csr_bfs_distances(csr, src), bfs_distances(g, src));
  }

  // Aggregates: PathStats field for field, eccentricities, connectivity.
  const PathStats expected = reference_path_stats(g);
  expect_same_stats(compute_path_stats(g), expected);

  EXPECT_EQ(eccentricities(g), reference_eccentricities(g));
  EXPECT_EQ(is_connected(g), expected.connected || n <= 1);
}

Graph disconnected_graph(NodeId n) {
  // Two rings of floor(n/2) and ceil(n/2) nodes plus one isolated node when
  // n is odd and small rings degenerate: exercises unreachable lanes.
  Graph g(n);
  const NodeId half = n / 2;
  for (NodeId i = 0; i + 1 < half; ++i) g.add_link(i, i + 1);
  if (half > 2) g.add_link(half - 1, 0);
  for (NodeId i = half; i + 1 < n; ++i) g.add_link(i, i + 1);
  if (n - half > 2) g.add_link(n - 1, half);
  return g;
}

TEST(Csr, EmptyAndTrivialGraphs) {
  const Graph empty(0);
  const CsrView csr(empty);
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_arcs(), 0u);
  const PathStats stats = compute_path_stats(empty);
  EXPECT_FALSE(stats.connected);
  EXPECT_TRUE(stats.hop_histogram.empty());
  EXPECT_TRUE(eccentricities(empty).empty());
  EXPECT_EQ(rotation_period(csr), 0u);
  EXPECT_EQ(rotation_period(CsrView(Graph(1))), 1u);

  expect_engine_matches(Graph(1), "single node");
  expect_engine_matches(Graph(3), "three isolated nodes");
}

TEST(Csr, MatchesBfsOnWattsStrogatz) {
  // 100 and 130 exercise n % 64 != 0 tails; beta spans lattice to random.
  for (const std::uint32_t n : {100u, 130u}) {
    for (const double beta : {0.0, 0.25, 1.0}) {
      const auto topo = make_watts_strogatz(n, 2, beta, /*seed=*/7);
      expect_engine_matches(topo.graph,
                            "watts-strogatz n=" + std::to_string(n) +
                                " beta=" + std::to_string(beta));
    }
  }
}

TEST(Csr, MatchesBfsOnDsn) {
  for (const std::uint32_t n : {60u, 128u, 200u}) {
    const Dsn d(n, dsn_default_x(n));
    expect_engine_matches(d.topology().graph, "dsn n=" + std::to_string(n));
  }
}

TEST(Csr, MatchesBfsOnDsnE) {
  // DSN-E adds physically parallel Up links: parallel-edge handling matters.
  for (const std::uint32_t n : {96u, 160u}) {
    const DsnE e(n);
    expect_engine_matches(e.topology().graph, "dsn-e n=" + std::to_string(n));
  }
}

TEST(Csr, MatchesBfsOnDisconnectedGraphs) {
  for (const NodeId n : {9u, 65u, 140u}) {
    expect_engine_matches(disconnected_graph(n),
                          "disconnected n=" + std::to_string(n));
  }
}

TEST(Csr, MatchesBfsBelowOneBatch) {
  for (const std::uint32_t n : {2u, 5u, 63u}) {
    const auto topo = make_ring(n >= 3 ? n : 3);
    expect_engine_matches(topo.graph, "ring n=" + std::to_string(topo.num_nodes()));
    if (n >= 4) {
      const auto rnd = make_dln_random(n, 2, 2, /*seed=*/3);
      expect_engine_matches(rnd.graph, "dln-2-2 n=" + std::to_string(n));
    }
  }
}

TEST(Csr, SortedNeighborsDeduplicateParallelLinks) {
  Graph g(4);
  g.add_link(0, 2);
  g.add_link(0, 1);
  g.add_link(0, 2);  // parallel
  g.add_link(0, 3);
  CsrView csr(g);
  csr.build_sorted_neighbors();
  const auto sorted = csr.sorted_neighbors(0);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], 1u);
  EXPECT_EQ(sorted[1], 2u);
  EXPECT_EQ(sorted[2], 3u);
  // Insertion-order view still has all four halves.
  EXPECT_EQ(csr.neighbors(0).size(), 4u);
}

/// The clustering coefficient by definition: each node's closed neighbor
/// pairs found with has_link, averaged in node order.
double reference_clustering(const Graph& g) {
  double sum = 0.0;
  std::uint64_t counted = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> nbrs;
    for (const AdjHalf& h : g.neighbors(u)) {
      if (std::find(nbrs.begin(), nbrs.end(), h.to) == nbrs.end()) nbrs.push_back(h.to);
    }
    if (nbrs.size() < 2) continue;
    std::uint64_t closed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (g.has_link(nbrs[i], nbrs[j])) ++closed;
      }
    }
    sum += static_cast<double>(closed) /
           static_cast<double>(nbrs.size() * (nbrs.size() - 1) / 2);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

TEST(Csr, ClusteringCoefficientMatchesHasLinkScan) {
  // Triangle plus a pendant: C = (1 + 1 + 1/3... ) computed by definition.
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(0, 2);
  g.add_link(2, 3);
  // Nodes 0,1: coefficient 1; node 2: 1/3; node 3: degree 1, skipped.
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), (1.0 + 1.0 + 1.0 / 3.0) / 3.0);

  const auto ws = make_watts_strogatz(120, 3, 0.1, /*seed=*/11);
  EXPECT_EQ(clustering_coefficient(ws.graph), reference_clustering(ws.graph));

  // Summing per-shard partials made the last bits move with the shard
  // boundaries, i.e. with DSN_THREADS (Kleinberg-4096 read ...613, ...585,
  // ...578 and ...627 at 2, 3, 4 and 8 threads); the node-order sum does not
  // depend on the pool.
  for (const char* family : {"kleinberg", "random-regular"}) {
    const Topology topo = make_topology_by_name(family, 4096, /*seed=*/7);
    EXPECT_EQ(clustering_coefficient(topo.graph), reference_clustering(topo.graph)) << family;
  }
}

TEST(Csr, MsBfsRejectsBadBatches) {
  const auto topo = make_ring(8);
  const CsrView csr(topo.graph);
  MsBfsScratch scratch;
  const std::vector<NodeId> empty_sources;
  EXPECT_THROW(sweep_distances(csr, empty_sources, scratch), PreconditionError);
  const std::vector<NodeId> out_of_range{9};
  EXPECT_THROW(sweep_distances(csr, out_of_range, scratch), PreconditionError);
  const std::vector<NodeId> too_many(kMsBfsBatch + 1, 0);
  EXPECT_THROW(sweep_distances(csr, too_many, scratch), PreconditionError);
}

TEST(Csr, ScratchReuseAcrossGraphSizes) {
  // One scratch serving graphs of different sizes must not leak state.
  MsBfsScratch scratch;
  for (const std::uint32_t n : {66u, 10u, 129u}) {
    const auto topo = make_ring(n);
    const CsrView csr(topo.graph);
    for (NodeId lo = 0; lo < n; lo += kMsBfsBatch) {
      const NodeId hi = std::min<NodeId>(n, lo + kMsBfsBatch);
      std::vector<NodeId> sources(hi - lo);
      std::iota(sources.begin(), sources.end(), lo);
      const auto dist = sweep_distances(csr, sources, scratch);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto expected = bfs_distances(topo.graph, sources[i]);
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(dist[static_cast<std::size_t>(v) * sources.size() + i], expected[v]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Orbit-reduced path statistics.
// ---------------------------------------------------------------------------

/// `g` with node v renamed perm[v]; links keep their order.
Graph relabeled(const Graph& g, const std::vector<NodeId>& perm) {
  Graph out(g.num_nodes());
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    out.add_link(perm[u], perm[v]);
  }
  return out;
}

/// `g` without the links whose endpoints are {a, b}.
Graph without_link(const Graph& g, NodeId a, NodeId b) {
  Graph out(g.num_nodes());
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    if ((u == a && v == b) || (u == b && v == a)) continue;
    out.add_link(u, v);
  }
  EXPECT_EQ(out.num_links() + 1, g.num_links()) << "expected one link " << a << "-" << b;
  return out;
}

TEST(OrbitPathStats, RotationPeriodPerFamily) {
  struct Case {
    const char* family;
    std::uint32_t n;
    NodeId period;
  };
  for (const auto& [family, n, period] :
       {Case{"torus", 2048, 64},     // 64 x 32, node id y * 64 + x
        Case{"torus3d", 4096, 256},  // 16^3
        Case{"ring", 100, 1}, Case{"dln", 2048, 1}, Case{"dln", 300, 1},
        Case{"dsn", 256, 8}, Case{"dsn-d", 256, 8}, Case{"dsn-bidir", 256, 8},
        Case{"dsn", 65536, 16},
        // No rotation symmetry: p = 11 does not divide 2048, DSN-E's Extra
        // region sits near node 0, and the rest are random.
        Case{"dsn", 2048, 2048}, Case{"dsn-e", 512, 512}, Case{"random", 2048, 2048},
        Case{"kleinberg", 1024, 1024}, Case{"random-regular", 1024, 1024}}) {
    const Topology topo = make_topology_by_name(family, n, /*seed=*/1);
    EXPECT_EQ(rotation_period(CsrView(topo.graph)), period) << topo.name;
  }
}

TEST(OrbitPathStats, RelabeledCopyTakesTheFullSweepAndAgrees) {
  // A seeded relabeling destroys the rotation symmetry of the labels but not
  // the graph: the copy sweeps every source, the original one per orbit.
  for (const auto& [family, n] :
       {std::pair<const char*, std::uint32_t>{"torus", 2048}, {"torus3d", 512},
        {"ring", 100}, {"dln", 2048}, {"dsn", 256}, {"dsn-d", 256}, {"dsn-bidir", 256}}) {
    const Topology topo = make_topology_by_name(family, n);
    SCOPED_TRACE(topo.name);
    std::vector<NodeId> perm(n);
    std::iota(perm.begin(), perm.end(), NodeId{0});
    Rng rng(/*seed=*/n);
    for (NodeId i = n - 1; i > 0; --i)
      std::swap(perm[i], perm[static_cast<NodeId>(rng.next_below(i + 1))]);
    const Graph copy = relabeled(topo.graph, perm);
    ASSERT_LT(rotation_period(CsrView(topo.graph)), n);
    ASSERT_EQ(rotation_period(CsrView(copy)), n);
    expect_same_stats(compute_path_stats(topo.graph), compute_path_stats(copy));
  }
}

TEST(OrbitPathStats, NearMissesTakeTheFullSweep) {
  // One link short of symmetric: the rotation check must reject the graph,
  // and it must still match the reference. DLN-11-2048's quarter-ring
  // shortcut 1500-2012 sits far from node 0, so the check for r = 1 walks
  // most of the graph before it fails.
  const Graph dln = without_link(make_dln(2048, 11).graph, 1500, 2012);
  Graph chord = make_ring(100).graph;
  chord.add_link(10, 40);
  const Topology torus = make_torus_2d(16, 8);
  LinkId wrap = 0;
  while (torus.link_roles[wrap] != LinkRole::kWrap) ++wrap;
  const auto [a, b] = torus.graph.link_endpoints(wrap);
  const Graph torus_cut = without_link(torus.graph, a, b);
  for (const auto& [label, g] :
       {std::pair<const char*, const Graph*>{"dln-11-2048 minus a shortcut", &dln},
        {"ring-100 plus a chord", &chord},
        {"torus 16x8 minus a wrap link", &torus_cut}}) {
    SCOPED_TRACE(label);
    EXPECT_EQ(rotation_period(CsrView(*g)), g->num_nodes());
    expect_same_stats(compute_path_stats(*g), reference_path_stats(*g));
  }
}

TEST(OrbitPathStats, PartialSymmetriesMultigraphsAndDisconnectedGraphs) {
  // A diametral chord is its own image under rotation by n / 2.
  Graph diametral = make_ring(100).graph;
  diametral.add_link(10, 60);
  // Every ring link doubled: offsets are multisets.
  Graph doubled(64);
  for (NodeId i = 0; i < 64; ++i) {
    doubled.add_link(i, (i + 1) % 64);
    doubled.add_link(i, (i + 1) % 64);
  }
  // Links i-(i+2) with n even: two rings, the even and the odd nodes.
  Graph two_rings(100);
  for (NodeId i = 0; i < 100; ++i) two_rings.add_link(i, (i + 2) % 100);
  for (const auto& [label, g, period] :
       {std::tuple<const char*, const Graph*, NodeId>{"ring plus diametral chord", &diametral, 50},
        {"doubled ring", &doubled, 1},
        {"two rings", &two_rings, 1}}) {
    SCOPED_TRACE(label);
    EXPECT_EQ(rotation_period(CsrView(*g)), period);
    expect_same_stats(compute_path_stats(*g), reference_path_stats(*g));
  }
  EXPECT_FALSE(compute_path_stats(two_rings).connected);
}

// ---------------------------------------------------------------------------
// Moore-type lower bounds: a reference-free oracle for every family.
// ---------------------------------------------------------------------------

/// Lower bounds on the diameter and ASPL of a connected graph with n nodes
/// and maximum degree d >= 2: at most d (d - 1)^(i - 1) nodes lie at
/// distance i from any node, so its distances are at least those of filling
/// every level to that capacity.
struct MooreBound {
  std::uint32_t diameter = 0;
  double aspl = 0.0;
};

MooreBound moore_bound(std::uint64_t n, std::uint64_t d) {
  MooreBound bound;
  if (n <= 1) return bound;
  std::uint64_t left = n - 1;
  std::uint64_t capacity = d;
  std::uint64_t total = 0;
  while (left > 0) {
    ++bound.diameter;
    const std::uint64_t placed = std::min(left, capacity);
    total += placed * bound.diameter;
    left -= placed;
    capacity = std::min(capacity * (d - 1), n);
  }
  bound.aspl = static_cast<double>(total) / static_cast<double>(n - 1);
  return bound;
}

TEST(MooreBound, KnownValues) {
  EXPECT_EQ(moore_bound(10, 3).diameter, 2u);  // the Petersen graph meets it
  EXPECT_DOUBLE_EQ(moore_bound(10, 3).aspl, 15.0 / 9.0);
  EXPECT_EQ(moore_bound(100, 2).diameter, 50u);  // the ring meets it
  const PathStats ring = compute_path_stats(make_ring(101).graph);
  EXPECT_EQ(ring.diameter, moore_bound(101, 2).diameter);
  EXPECT_EQ(ring.avg_shortest_path, moore_bound(101, 2).aspl);
}

TEST(MooreBound, HoldsForEveryFamily) {
  for (const char* family : {"dsn", "torus", "torus3d", "random", "ring", "dln", "kleinberg",
                             "random-regular", "dsn-d", "dsn-e", "dsn-bidir"}) {
    for (const std::uint32_t n : {64u, 100u, 256u, 300u, 729u}) {
      Topology topo;
      try {
        topo = make_topology_by_name(family, n, /*seed=*/3);
      } catch (const PreconditionError&) {
        continue;  // a size this family cannot realize
      }
      SCOPED_TRACE(topo.name);
      const PathStats stats = compute_path_stats(topo.graph);
      ASSERT_TRUE(stats.connected);
      const MooreBound bound = moore_bound(n, compute_degree_stats(topo.graph).max_degree);
      EXPECT_GE(stats.diameter, bound.diameter);
      EXPECT_GE(stats.avg_shortest_path, bound.aspl);
    }
  }
}

TEST(MooreBound, HoldsOnOptimizerFront) {
  // Degree-preserving swaps keep the maximum degree, so one bound covers the
  // whole front; below n = 1024 every point's ASPL is an exact sweep.
  opt::OptimizerConfig cfg;
  cfg.passes = 1;
  cfg.iterations = 80;
  cfg.plateau = 20;
  const opt::OptimizerResult res = opt::optimize_shortcuts(make_topology_by_name("dsn", 200), cfg);
  const MooreBound bound = moore_bound(res.n, res.degree_max);
  ASSERT_FALSE(res.front.empty());
  for (const opt::OptPoint& point : res.front) EXPECT_GE(point.aspl, bound.aspl);
}

}  // namespace
}  // namespace dsn
