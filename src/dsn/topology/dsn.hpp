// The paper's primary contribution: the basic Distributed Shortcut Network
// DSN-x-n (§IV).
//
// n nodes sit on a ring. With p = ceil(log2 n), node i has level
// l(i) = (i mod p) + 1 and height p + 1 - l(i). Every node at level l <= x
// owns one *level-l shortcut* to the nearest clockwise node of level l+1 at
// ring distance >= floor(n / 2^l). Groups of p consecutive nodes ("super
// nodes") therefore collectively own a full DLN-style set of distance-halving
// shortcuts, which is what keeps the diameter logarithmic at average degree
// <= 4 (Fact 1 / Theorem 1).
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/topology/topology.hpp"

namespace dsn {

class Dsn {
 public:
  /// Construct DSN-x-n. Requires n >= 8 (so p >= 3) and 1 <= x <= p-1.
  Dsn(std::uint32_t n, std::uint32_t x);

  std::uint32_t n() const { return n_; }
  /// p = ceil(log2 n): super-node size and number of levels.
  std::uint32_t p() const { return p_; }
  /// Size of the shortcut set (levels 1..x have shortcuts).
  std::uint32_t x() const { return x_; }
  /// r = n mod p: size of the final, possibly incomplete super node.
  std::uint32_t r() const { return r_; }

  /// Level of node i, in [1, p].
  std::uint32_t level(NodeId i) const { return i % p_ + 1; }
  /// Height of node i = p + 1 - level(i); higher nodes own longer shortcuts.
  std::uint32_t height(NodeId i) const { return p_ + 1 - level(i); }

  NodeId pred(NodeId i) const { return i == 0 ? n_ - 1 : i - 1; }
  NodeId succ(NodeId i) const { return i + 1 == n_ ? 0 : i + 1; }

  /// Minimum span of a level-l shortcut: floor(n / 2^l).
  std::uint32_t shortcut_min_span(std::uint32_t l) const { return n_ >> l; }

  /// Outgoing shortcut target of node i, or kInvalidNode when level(i) > x.
  NodeId shortcut_target(NodeId i) const { return shortcut_target_[i]; }

  /// Super node index of node i (groups of p consecutive ids).
  std::uint32_t super_node(NodeId i) const { return i / p_; }

  /// The switch graph (ring links then shortcut links; shortcut links that
  /// would duplicate a ring link are collapsed).
  const Topology& topology() const { return topology_; }

 private:
  std::uint32_t n_;
  std::uint32_t p_;
  std::uint32_t x_;
  std::uint32_t r_;
  std::vector<NodeId> shortcut_target_;
  Topology topology_;
};

/// Convenience factory returning only the Topology of a basic DSN-x-n.
Topology make_dsn(std::uint32_t n, std::uint32_t x);

/// The paper's default shortcut-set size: the largest x (= p-1), which
/// satisfies the x > p - log p premise of Theorems 1-2.
std::uint32_t dsn_default_x(std::uint32_t n);

}  // namespace dsn
