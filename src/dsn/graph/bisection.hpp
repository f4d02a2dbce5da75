// Bisection analysis: estimate the bisection width (minimum number of links
// cut by a balanced node partition) of a topology. Exact bisection is
// NP-hard; we report the best of several natural cuts refined with
// Kernighan-Lin passes, which upper-bounds the true bisection width and is
// the standard comparison metric for interconnect proposals (e.g. Jellyfish).
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/graph/graph.hpp"

namespace dsn {

struct BisectionResult {
  std::uint64_t cut_links = 0;          ///< links crossing the partition
  std::vector<std::uint8_t> side;       ///< 0/1 per node
  /// Normalized: cut / (n/2) — links of bisection bandwidth per node.
  double per_node() const {
    const std::size_t n = side.size();
    return n == 0 ? 0.0 : static_cast<double>(cut_links) / (static_cast<double>(n) / 2.0);
  }
};

/// Number of links crossing a given 0/1 partition.
std::uint64_t count_cut_links(const Graph& g, const std::vector<std::uint8_t>& side);

/// Kernighan-Lin refinement: repeatedly swap the best (gain-wise) pair of
/// nodes across the cut until no improving pass remains. Keeps the partition
/// balanced. Returns the refined result.
BisectionResult kernighan_lin_refine(const Graph& g, std::vector<std::uint8_t> side,
                                     int max_passes = 8);

/// Estimate the bisection width: tries the id-split (first half vs second
/// half), an interleaved split, and `random_starts` random balanced splits,
/// refining each with Kernighan-Lin; returns the smallest cut found.
BisectionResult estimate_bisection(const Graph& g, std::uint64_t seed = 1,
                                   std::uint32_t random_starts = 4);

}  // namespace dsn
