// Channel Dependency Graph (CDG) analysis [Dally & Seitz] used to verify the
// deadlock-freedom claims of the paper:
//  - Theorem 3: the extended DSN routing on DSN-E (physical Up/Extra links)
//    and DSN-V (virtual channels) has an acyclic CDG;
//  - up*/down* escape routing has an acyclic CDG (classic result; the route
//    analyzer proves it on the up*/down* family);
//  - negative control: the basic DSN custom routing without the extension
//    has a cyclic CDG.
//
// A channel is a directed use of a physical link tagged with a channel class
// (virtual channel / link group). A dependency c1 -> c2 is recorded whenever
// some route holds c1 and then immediately requests c2. The routing is
// deadlock-free (for virtual cut-through) if the resulting directed graph is
// acyclic.
//
// Channels are indexed through a flat hash table (not an ordered map) and
// adjacency rows reserve ahead, so all-pairs builds stay cheap at n = 4096.
// add_route remembers the previous route it was given and charges the prefix
// a new route shares with it as load only: the all-pairs sweeps feed the
// routes of one source in destination order, and most of each route repeats
// its predecessor hop for hop, so only the new suffix is hashed.
// build_dsn_cdg shards the ordered-pair sweep across the global thread pool
// into thread-local graphs merged deterministically at the end; each shard
// refills one route and one channel buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/routing/route.hpp"
#include "dsn/topology/dsn_ext.hpp"

namespace dsn {

/// A directed channel: physical hop (from -> to) within a channel class.
struct Channel {
  NodeId from;
  NodeId to;
  std::uint8_t cls;
  auto operator<=>(const Channel&) const = default;
};

/// Multiplicative mix of the (from, to, cls) triple. The three multiplies
/// are independent (no xor-shift chain), which matters in the all-pairs
/// sweeps where this hash runs once per route hop; the probe table keeps its
/// load factor under 1/2, so the slightly weaker mixing costs nothing.
struct ChannelHash {
  std::size_t operator()(const Channel& c) const {
    const std::uint64_t z = (c.from + 1ull) * 0x9e3779b97f4a7c15ULL ^
                            (c.to + 1ull) * 0xbf58476d1ce4e5b9ULL ^
                            (c.cls + 1ull) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 29));
  }
};

class ChannelDependencyGraph {
 public:
  /// Record the channel sequence of one route; consecutive channels create
  /// dependencies. Duplicate dependencies are collapsed; every traversal of a
  /// channel still counts toward its static load (use_count). The prefix
  /// shared with the previous route given here is only charged as load; ids,
  /// loads and dependencies come out exactly as if every hop were indexed.
  void add_route(const std::vector<Channel>& channels);

  /// Pre-size the index and channel arrays for an expected channel count.
  void reserve(std::size_t expected_channels);

  /// Merge another CDG into this one (channels re-indexed, dependencies
  /// deduplicated, use counts added). Used to combine per-thread shards.
  void merge(const ChannelDependencyGraph& other);

  std::size_t num_channels() const { return adjacency_.size(); }
  std::size_t num_dependencies() const { return num_deps_; }

  /// All channels, indexed by their dense channel id.
  const std::vector<Channel>& channels() const { return channels_; }

  /// Number of route traversals of each channel (the static channel load),
  /// parallel to channels().
  const std::vector<std::uint64_t>& use_counts() const { return use_counts_; }

  /// True iff the dependency a -> b has been recorded.
  bool has_dependency(const Channel& a, const Channel& b) const;

  /// True iff the dependency graph has no directed cycle (Kahn's algorithm).
  bool is_acyclic() const;

  /// One directed cycle (channel sequence; each element depends on the next,
  /// and the last depends on the first) or empty when acyclic.
  std::vector<Channel> find_cycle() const;

  /// A *shortest* directed cycle, for human-readable deadlock witnesses.
  /// Searches per-SCC breadth-first; when the estimated work exceeds
  /// `work_cap` it falls back to the (not necessarily minimal) DFS cycle.
  std::vector<Channel> find_shortest_cycle(std::uint64_t work_cap = 1ULL << 28) const;

 private:
  std::uint32_t channel_index(const Channel& c);
  std::uint32_t find_index(const Channel& c) const;
  void grow_slots(std::size_t min_capacity);

  // Open-addressing index over channels_: slots_ holds channel-id + 1 (0 =
  // empty) in a power-of-two table probed linearly. A node-based hash map
  // here costs a pointer chase per lookup; the all-pairs sweeps still call
  // channel_index for every hop past each route's shared prefix, so the probe
  // table is the difference between seconds and minutes.
  std::vector<std::uint32_t> slots_;
  std::size_t slot_mask_ = 0;
  std::vector<Channel> channels_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<std::uint64_t> use_counts_;
  std::size_t num_deps_ = 0;
  // The previous add_route input and its channel ids (the prefix skip).
  std::vector<Channel> last_route_;
  std::vector<std::uint32_t> last_ids_;
};

/// Channel classes used when mapping DSN routes onto channels.
enum DsnChannelClass : std::uint8_t {
  kClassUp = 0,      ///< PRE-WORK moves (Up links / "up" VC)
  kClassMain = 1,    ///< MAIN-PROCESS succ + shortcut moves
  kClassFinish = 2,  ///< FINISH ring moves
  kClassExtra = 3,   ///< FINISH moves carried by Extra links near node 0
};

/// Channel class of one hop of a DSN route toward `dst` under the *extended*
/// scheme of §V-A (Theorem 3): PRE-WORK on Up channels, MAIN on main
/// channels, FINISH on finish channels except that, when dst lies in
/// [0, 2p-1], hops with both endpoints in [0, 2p] ride the Extra channels.
/// The route proofs and the flit simulator's DSN-V virtual channels both
/// classify hops here.
DsnChannelClass dsn_hop_class(const Dsn& dsn, NodeId dst, const RouteHop& hop);

/// Map a DSN route onto channels hop by hop with dsn_hop_class. Overwrites
/// `out`.
void dsn_route_channels_extended(const Dsn& dsn, const Route& route,
                                 std::vector<Channel>& out);
std::vector<Channel> dsn_route_channels_extended(const Dsn& dsn, const Route& route);

/// Map a DSN route onto channels with a single channel class (the basic,
/// unprotected design — expected to yield a cyclic CDG). Overwrites `out`.
void dsn_route_channels_basic(const Route& route, std::vector<Channel>& out);
std::vector<Channel> dsn_route_channels_basic(const Route& route);

/// Build the CDG of the DSN custom routing over all ordered pairs
/// (parallelized over sources; the result is deterministic). The route
/// analyzer builds the same graph for every routing family; this standalone
/// builder is the independent reference its witnesses are checked against.
ChannelDependencyGraph build_dsn_cdg(const Dsn& dsn, bool extended,
                                     bool nearest_prework = false);

}  // namespace dsn
