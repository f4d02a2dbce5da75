// Topology: a named switch graph plus the structural metadata needed by the
// layout model (grid dimensions) and by routing/deadlock analysis (link roles).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsn/graph/graph.hpp"

namespace dsn {

/// Families of topologies this library can generate.
enum class TopologyKind {
  kRing,
  kTorus2D,
  kTorus3D,
  kDln,          ///< Distributed Loop Network DLN-x [Koibuchi et al., ISCA'12]
  kDlnRandom,    ///< DLN-x plus random matchings ("RANDOM" baseline, e.g. DLN-2-2)
  kKleinberg,    ///< Kleinberg's small-world grid [STOC'00]
  kRandomRegular,///< Jellyfish-style random regular graph
  kDsn,          ///< basic DSN-x (this paper)
  kDsnD,         ///< DSN-D-x: extra intra-super-node express links (§V-B)
  kDsnE,         ///< DSN-E: Up + Extra links for deadlock-free routing (§V-A)
  kDsnFlex,      ///< flexible DSN with major/minor nodes (§V-C)
  kDsnBidir,     ///< degree-6 DSN: shortcuts in both ring directions (§VI-B remark)
};

const char* to_string(TopologyKind kind);

/// Role a physical link plays; routing phases and the channel-dependency
/// analysis distinguish these.
enum class LinkRole : std::uint8_t {
  kRing,      ///< pred/succ link on the base ring (or torus/grid mesh link)
  kShortcut,  ///< DSN/DLN long-range shortcut (or random matching link)
  kUp,        ///< DSN-E Up link (parallel (i, i-1) used only in PRE-WORK)
  kExtra,     ///< DSN-E Extra link ((i, i-1) for i in [1, 2p], used in FINISH)
  kDLocal,    ///< DSN-D intra-super-node express link
  kWrap,      ///< torus wraparound link
};

const char* to_string(LinkRole role);

/// A generated topology.
struct Topology {
  std::string name;
  TopologyKind kind;
  Graph graph;
  /// Per-link role, parallel to graph link ids.
  std::vector<LinkRole> link_roles;
  /// Grid dimensions for mesh/torus topologies (empty otherwise). Node id
  /// encodes coordinates row-major: id = z*(w*h) + y*w + x.
  std::vector<std::uint32_t> dims;

  NodeId num_nodes() const { return graph.num_nodes(); }
};

/// All maximal digit runs in a topology name, in order ("dsn-5-100" ->
/// {5, 100}). Generators encode their parameters this way.
std::vector<std::uint64_t> name_numbers(std::string_view name);

}  // namespace dsn
