// DSN extensions from §V of the paper:
//  - DSN-E (§V-A): basic DSN with x = p-1 plus physical Up links (one per
//    node, parallel to the pred link, reserved for PRE-WORK) and 2p Extra
//    links ((i, i-1) for i = 1..2p, reserved for FINISH). With these, the
//    custom routing is deadlock-free (Theorem 3). DSN-V is the same design
//    realized with virtual channels instead of physical links — the routing
//    module models it with VC classes over the basic topology.
//  - DSN-D-x (§V-B): DSN with x = p - ceil(log p) as the base plus x express
//    local links per super node (span q = ceil(p/x)), trimming the local
//    walks in PRE-WORK and FINISH.
//  - Flexible DSN (§V-C): super nodes of size p plus/minus a few; extra
//    "minor" nodes carry no shortcut and are reached via their preceding
//    "major" node.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "dsn/topology/dsn.hpp"

namespace dsn {

/// DSN-E: basic DSN-(p-1) plus Up and Extra links.
class DsnE {
 public:
  explicit DsnE(std::uint32_t n);

  const Dsn& base() const { return base_; }
  const Topology& topology() const { return topology_; }

  /// Link id of node i's Up link (to pred(i)).
  LinkId up_link(NodeId i) const { return up_link_[i]; }
  /// Link id of the Extra link (i, i-1), valid for i in [1, 2p]; kInvalidLink
  /// otherwise.
  LinkId extra_link(NodeId i) const {
    return i < extra_link_.size() ? extra_link_[i] : kInvalidLink;
  }

 private:
  Dsn base_;
  Topology topology_;
  std::vector<LinkId> up_link_;
  std::vector<LinkId> extra_link_;  // index i holds link (i, i-1); [0] invalid
};

/// DSN-D-x: returns the extended structure; `express_per_super_node` is the
/// paper's x in "DSN-D-x" (e.g. 2).
class DsnD {
 public:
  DsnD(std::uint32_t n, std::uint32_t express_per_super_node);

  const Dsn& base() const { return base_; }
  const Topology& topology() const { return topology_; }
  /// Span of each express link: q = ceil(p / x_d).
  std::uint32_t q() const { return q_; }
  std::uint32_t express_per_super_node() const { return xd_; }

 private:
  static std::uint32_t base_x(std::uint32_t n);
  Dsn base_;
  std::uint32_t xd_;
  std::uint32_t q_;
  Topology topology_;
};

/// Flexible DSN (§V-C): a basic DSN on `n_major` major nodes with extra minor
/// nodes spliced into the ring after chosen major nodes. Minor nodes have no
/// shortcuts and no level; routing reaches them through the preceding major.
class FlexDsn {
 public:
  /// `insert_after` lists major node ids (each < n_major, strictly
  /// increasing) after which one minor node is inserted.
  FlexDsn(std::uint32_t n_major, std::uint32_t x, std::vector<NodeId> insert_after);

  const Dsn& base() const { return base_; }
  const Topology& topology() const { return topology_; }

  std::uint32_t num_total() const { return topology_.graph.num_nodes(); }
  std::uint32_t num_major() const { return base_.n(); }
  std::uint32_t num_minor() const { return num_total() - num_major(); }

  /// True iff physical node id is a major node.
  bool is_major(NodeId phys) const { return major_of_[phys] != kInvalidNode; }
  /// Major (logical DSN) id of a physical node, or kInvalidNode for minors.
  NodeId major_of(NodeId phys) const { return major_of_[phys]; }
  /// Physical id of a major (logical DSN) node.
  NodeId phys_of(NodeId major) const { return phys_of_[major]; }
  /// Nearest major node at or counterclockwise-before a physical node.
  NodeId preceding_major(NodeId phys) const;

 private:
  Dsn base_;
  Topology topology_;
  std::vector<NodeId> major_of_;  // phys -> major id or kInvalidNode
  std::vector<NodeId> phys_of_;   // major id -> phys
};

/// Degree-6 DSN (the §VI-B remark comparing against a 3-D torus): the basic
/// DSN-(p-1) plus the mirror image of its shortcut set in the
/// counterclockwise direction (node i also owns a CCW shortcut obtained by
/// reflecting the ring through i <-> n-1-i). Average degree ~6; diameter and
/// ASPL drop below the basic DSN while cable lengths stay ring-local.
Topology make_dsn_bidir(std::uint32_t n);

/// DSN parameters recovered from a topology: n from the graph, x from the
/// kind and the name the generator gave it.
struct DsnParams {
  std::uint32_t n = 0;
  std::uint32_t p = 0;    ///< ceil(log2 n)
  std::uint32_t x = 0;    ///< shortcut-set size of the (base) DSN
  std::uint32_t xd = 0;   ///< DSN-D express links per super node (0 otherwise)
  bool mirrored = false;  ///< DSN-bidir: shortcut law holds CW or mirrored CCW
};

/// The parameters of a DSN, DSN-E, DSN-bidir or DSN-D topology, or nullopt
/// when the topology is of another kind or its name does not encode what
/// the kind needs ("dsn-x-n", "dsn-e-n", "dsn-bidir-n", "dsn-d-xd-n").
std::optional<DsnParams> parse_dsn_params(const Topology& topo);

/// parse_dsn_params for a `user` (e.g. "the dsn-custom policy") that needs
/// them: throws PreconditionError naming the user and the topology when
/// `topo`'s kind is not one of `kinds` or its name encodes no parameters.
DsnParams require_dsn_params(const Topology& topo, std::initializer_list<TopologyKind> kinds,
                             const std::string& user);

}  // namespace dsn
