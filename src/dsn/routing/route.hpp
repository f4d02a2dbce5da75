// Route representation shared by all routing algorithms: an ordered list of
// hops annotated with the routing phase and the kind of link taken, so the
// channel-dependency analysis can assign each hop to a channel class.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/common/types.hpp"

namespace dsn {

/// Phase of the DSN custom routing algorithm a hop belongs to (Fig. 2).
/// Non-DSN algorithms use kMain for every hop.
enum class RoutePhase : std::uint8_t {
  kPreWork,  ///< climb to a node high enough to "look over" to the destination
  kMain,     ///< distance-halving shortcut walk
  kFinish,   ///< local ring walk to the destination
};

/// Kind of link a hop traverses.
enum class HopKind : std::uint8_t {
  kPred,      ///< counterclockwise ring link
  kSucc,      ///< clockwise ring link
  kShortcut,  ///< long-range shortcut
  kExpress,   ///< DSN-D intra-super-node express link
};

struct RouteHop {
  NodeId from;
  NodeId to;
  RoutePhase phase;
  HopKind kind;
};

/// A complete route from a source to a destination.
struct Route {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<RouteHop> hops;
  /// True when the defensive hop cap fired and the route fell back to a plain
  /// ring walk (never expected for well-formed parameters; tests assert 0).
  bool used_fallback = false;

  std::size_t length() const { return hops.size(); }

  /// Start an empty s -> t route in this buffer. The hop storage keeps its
  /// capacity, so an all-pairs sweep refills one Route without allocating.
  void reset(NodeId s, NodeId t) {
    src = s;
    dst = t;
    hops.clear();
    used_fallback = false;
  }
};

}  // namespace dsn
