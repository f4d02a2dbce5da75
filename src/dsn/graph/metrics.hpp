// Hop-count graph metrics: BFS, all-pairs shortest path statistics, degree
// statistics. These drive the Figure 7/8 reproductions and the topology
// property tests.
//
// The all-pairs kernels (compute_path_stats, eccentricities, is_connected,
// clustering_coefficient) run on a CsrView snapshot driven by the 64-way
// bit-parallel MS-BFS (see msbfs.hpp); the Graph overloads build the snapshot
// internally. Callers holding several kernels' worth of work over the same
// graph should build one CsrView and use the CsrView overloads directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/graph/csr.hpp"
#include "dsn/graph/graph.hpp"

namespace dsn {

/// BFS hop distances from src to every node (kUnreachable when disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src);

/// BFS that additionally records one shortest-path predecessor per node.
struct BfsTree {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> parent;  // kInvalidNode for src/unreachable
};
BfsTree bfs_tree(const Graph& g, NodeId src);

/// Aggregate all-pairs shortest-path statistics computed by parallel BFS.
struct PathStats {
  bool connected = false;
  std::uint32_t diameter = 0;          ///< max over reachable pairs
  double avg_shortest_path = 0.0;      ///< mean hops over ordered reachable pairs, s != t
  std::vector<std::uint64_t> hop_histogram;  ///< index = hop count, value = #ordered pairs
};

/// Exact all-pairs PathStats. Sweeps one source per orbit of the graph's
/// rotation symmetry: sources [0, r) with r = rotation_period(csr), whose
/// hop histogram, scaled by the orbit size n / r, is the all-sources
/// histogram integer for integer (rotation by r maps the BFS from s onto the
/// BFS from s + r). Every field equals the full n-source sweep bit for bit;
/// graphs without rotation symmetry (r = n) take the full sweep.
PathStats compute_path_stats(const Graph& g);
PathStats compute_path_stats(const CsrView& csr);

/// Sampled-source variant: the bit-parallel MS-BFS sweep (64 sources per
/// batch, parallelized over batches with per-shard accumulators) restricted
/// to an explicit source set (any subset of [0, n), each source in [1, n]
/// times). Statistics cover ordered pairs (s, t) with s drawn from `sources`
/// and t != s; `connected` means every sampled source reached every other
/// node. With sources = [0, n) this is the full all-pairs sweep, every
/// source swept. Deterministic for any thread count: shard results are
/// integer histograms merged in shard order.
PathStats compute_path_stats(const CsrView& csr, std::span<const NodeId> sources);

/// Smallest r dividing n such that v -> (v + r) mod n maps the arc multiset
/// onto itself (an automorphism of the labeled graph), or n when no rotation
/// does; 0 for the empty graph. Rings and DLN give 1, a w x h torus w, and
/// DSN-x-n gives p whenever p | n. Compares each node's sorted multiset of
/// offsets (w - v) mod n with that of node v + r, for each divisor r in
/// increasing order: O(m log deg) once plus O(m) per divisor tried.
NodeId rotation_period(const CsrView& csr);

/// Eccentricity (max BFS distance) of every node; kUnreachable if the node
/// cannot reach some other node.
std::vector<std::uint32_t> eccentricities(const Graph& g);
std::vector<std::uint32_t> eccentricities(const CsrView& csr);

/// Degree distribution summary.
struct DegreeStats {
  std::size_t min_degree = 0;
  std::size_t max_degree = 0;
  double avg_degree = 0.0;
  std::vector<std::uint64_t> histogram;  ///< index = degree, value = #nodes
};
DegreeStats compute_degree_stats(const Graph& g);

/// True iff every node can reach every other node.
bool is_connected(const Graph& g);
bool is_connected(const CsrView& csr);

/// Average local clustering coefficient (Watts-Strogatz): for each node with
/// degree >= 2, the fraction of neighbor pairs that are themselves linked,
/// averaged over all such nodes. The classic "small-world" signature is high
/// clustering together with low average shortest path length. The CsrView
/// overload builds the snapshot's sorted neighbor sets on demand (hence the
/// non-const reference); pairs are counted by sorted-set intersection,
/// parallelized over nodes, and the per-node coefficients are summed in node
/// order, so the result is bit-identical for any thread count.
double clustering_coefficient(const Graph& g);
double clustering_coefficient(CsrView& csr);

}  // namespace dsn
