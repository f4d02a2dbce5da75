// dsn-slint: deterministic — swap validity and snapshot layout must depend
// only on the topology and the requested swap, never on iteration order of
// hashed containers (none are used) or thread count.
//
// Mutable view over a topology's shortcut placement. The optimizer explores
// placements by double-edge swaps over LinkRole::kShortcut links only: the
// fixed subgraph (ring/torus/express links) is never touched, so its
// connectivity — required at construction — is an invariant, and every
// node's degree is exactly preserved by construction.
//
// Snapshots are immutable CsrViews with a stable link-id layout: the fixed
// links first (in topology order), then shortcut slot i right after them.
// Per-link state held across swaps (estimator tree loads, cable lengths)
// therefore stays aligned: a swap changes the endpoint pair stored in a
// slot, not the slot's id.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dsn/graph/csr.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn {

class MutableShortcutSet {
 public:
  /// Partitions topo's links into fixed (every non-kShortcut role) and
  /// mutable shortcut slots. Requires at least two shortcut links (a double
  /// swap needs two slots) and a connected fixed subgraph.
  explicit MutableShortcutSet(const Topology& topo);

  NodeId num_nodes() const { return n_; }
  std::size_t num_shortcuts() const { return shortcuts_.size(); }
  std::size_t num_links() const { return fixed_.size() + shortcuts_.size(); }

  const std::pair<NodeId, NodeId>& shortcut(std::size_t slot) const {
    DSN_REQUIRE(slot < shortcuts_.size(), "shortcut slot out of range");
    return shortcuts_[slot];
  }
  std::span<const std::pair<NodeId, NodeId>> shortcuts() const { return shortcuts_; }

  /// Double-edge swap on slots i != j holding (a, b) and (c, d):
  ///   cross == false  ->  (a, c), (b, d)
  ///   cross == true   ->  (a, d), (b, c)
  /// Rejects (returning false, state unchanged) swaps that would create a
  /// self loop, duplicate an existing link (fixed or shortcut), or reproduce
  /// the current placement (no-op). On success the swap is applied and
  /// becomes undoable.
  bool try_swap(std::size_t i, std::size_t j, bool cross);

  /// Revert the most recent successful try_swap. At most one level of undo.
  void undo_last();

  /// Immutable CSR snapshot of the current placement (stable link ids as
  /// documented above). O(n + m); reuses an internal edge buffer.
  CsrView snapshot() const;

 private:
  std::uint32_t edge_count(NodeId u, NodeId v) const;
  void adj_remove(NodeId u, NodeId v);
  void adj_insert(NodeId u, NodeId v);

  NodeId n_ = 0;
  std::vector<std::pair<NodeId, NodeId>> fixed_;
  std::vector<std::pair<NodeId, NodeId>> shortcuts_;
  /// Sorted per-node neighbor multisets over ALL links, for O(degree)
  /// duplicate checks.
  std::vector<std::vector<NodeId>> adj_;

  struct SwapRecord {
    std::size_t i = 0;
    std::size_t j = 0;
    std::pair<NodeId, NodeId> old_i;
    std::pair<NodeId, NodeId> old_j;
    bool valid = false;
  };
  SwapRecord last_;

  mutable std::vector<std::pair<NodeId, NodeId>> edge_buf_;
};

}  // namespace dsn
