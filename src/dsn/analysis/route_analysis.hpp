// Whole-network static routing analysis (dsn::analyze).
//
// For a routing family (DSN custom, DSN-D express, torus DOR, grid greedy,
// up*/down*) the analyzer enumerates the routes from every source (or from a
// given source list) to every destination in parallel and proves or refutes
// routing-function-level properties with structured evidence:
//
//  - loop freedom          — no route revisits a node (witness: the route);
//  - reachability          — every route starts at s, chains hop to hop, and
//                            terminates at t (witness: the broken route);
//  - hops on links         — every hop is a link of the routed graph
//                            (witness: the channel of the offending hop);
//  - phase order           — PRE-WORK/MAIN/FINISH never decrease along a
//                            route (witness: the route);
//  - hop bounds            — every route respects the paper's analytic bound
//                            when its premise holds (Fact 2 / Theorem 2 for
//                            the DSN custom routing: 3p + r when
//                            x > p - log p; the exact DOR diameter for tori);
//  - static channel load   — per-channel route counts (max / mean / Gini),
//                            yielding the uniform-traffic throughput upper
//                            bound 1 / max normalized load;
//  - CDG acyclicity        — full channel-dependency graph with a *minimal*
//                            cycle witness when cyclic (Theorem 3 positive on
//                            DSN-E/DSN-V, negative control on basic DSN).
//
// This is the one per-route check: the validator (dsn::check) and dsn-lint
// read their route verdicts from it.
//
// The sweep shards sources across the global thread pool into thread-local
// channel-dependency graphs merged deterministically, so n = 4096 (16.7M
// routes) completes in seconds in Release builds. Nothing is allocated per
// route: each shard refills one Route and one channel vector through the
// routing layer's out-parameter forms, and each source's routes reach the
// CDG in destination order, so ChannelDependencyGraph::add_route indexes only
// the hops past the prefix a route shares with its predecessor. Hops are
// checked against the graph once per distinct channel of the merged CDG, not
// once per hop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/route.hpp"
#include "dsn/topology/dsn_ext.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::analyze {

/// Routing function families the analyzer knows how to drive.
enum class RoutingFamily : std::uint8_t {
  kDsn,         ///< DSN custom three-phase routing (basic / DSN-E / DSN-V)
  kDsnD,        ///< DSN-D express-aware routing
  kTorusDor,    ///< dimension-order routing on 2-D/3-D tori
  kGreedyGrid,  ///< greedy geographic routing on Kleinberg grids
  kUpDown,      ///< up*/down* escape routing (any connected topology)
};

const char* to_string(RoutingFamily family);

/// How DSN routes map onto channels: a single unprotected class (the basic
/// design, expected cyclic) or the §V-A Up/Main/Finish/Extra classes
/// (physical links on DSN-E, virtual channels on DSN-V — Theorem 3).
enum class ChannelScheme : std::uint8_t { kBasic, kExtended };

const char* to_string(ChannelScheme scheme);

struct RouteAnalysisOptions {
  /// When the CDG is cyclic, search for a *shortest* cycle witness (falls
  /// back to the first DFS cycle past find_shortest_cycle's work cap).
  bool find_min_cycle = true;
  /// Offending routes retained per refuted property. The verdicts do not
  /// depend on it: with 0, a violated property is still refuted.
  std::size_t max_witnesses = 4;
};

/// One offending route kept as evidence for a refuted property.
struct RouteWitness {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<NodeId> path;  ///< node sequence, including both endpoints
  std::string reason;
};

/// Static channel-load statistics over all ordered-pair routes. "Load" of a
/// channel is the number of routes traversing it; under uniform all-to-all
/// traffic a source injecting at rate r puts r·load/(n-1) on the channel, so
/// unit-capacity channels saturate at injection rate (n-1)/max_load — the
/// static throughput upper bound.
struct ChannelLoadStats {
  std::size_t channels = 0;
  std::uint64_t total = 0;     ///< sum of loads = total hops over all routes
  std::uint64_t max_load = 0;
  double mean_load = 0.0;
  double gini = 0.0;           ///< load-imbalance index in [0, 1)
  Channel max_channel{};       ///< a channel attaining max_load
  double max_normalized = 0.0;      ///< max_load / (n-1)
  double throughput_bound = 0.0;    ///< 1 / max_normalized
};

/// Result of one whole-network analysis run.
struct RouteAnalysis {
  std::string topology;
  RoutingFamily family = RoutingFamily::kDsn;
  ChannelScheme scheme = ChannelScheme::kBasic;
  NodeId n = 0;
  std::uint64_t pairs = 0;  ///< routes swept: sources x (n - 1)

  // Proven (true) / refuted (false) properties.
  bool loop_free = true;
  bool all_reachable = true;
  bool hops_on_links = true;
  bool phases_ordered = true;
  bool within_hop_bound = true;  ///< vacuously true when hop_bound == 0
  bool cdg_acyclic = true;

  std::uint32_t hop_bound = 0;  ///< analytic per-pair bound; 0 = none applies
  std::string hop_bound_law;    ///< provenance of the bound, for reports
  std::uint32_t max_hops = 0;
  double avg_hops = 0.0;
  std::uint64_t fallback_routes = 0;

  std::vector<RouteWitness> loop_witnesses;
  std::vector<RouteWitness> endpoint_witnesses;
  std::vector<RouteWitness> phase_witnesses;
  std::vector<RouteWitness> bound_witnesses;
  std::vector<Channel> non_link_channels;  ///< channels whose hop is not a link

  ChannelLoadStats load;

  std::size_t cdg_channels = 0;
  std::size_t cdg_dependencies = 0;
  std::vector<Channel> cdg_cycle;  ///< minimal cycle witness; empty if acyclic

  /// True when every per-route property holds (loop freedom, reachability,
  /// hops on links, phase order, hop bound, no defensive fallbacks). CDG
  /// acyclicity is judged separately because the basic DSN scheme is
  /// *expected* to refute it.
  bool routes_ok() const {
    return loop_free && all_reachable && hops_on_links && phases_ordered &&
           within_hop_bound && fallback_routes == 0;
  }
};

/// Writes the s -> t route into the given buffer (see Route::reset).
using RouteFill = std::function<void(NodeId, NodeId, Route&)>;
/// Overwrites the given vector with the channels a route occupies, one per
/// hop and in order (a channel's endpoints are its hop's).
using ChannelFill = std::function<void(const Route&, std::vector<Channel>&)>;

/// The analyzer core: run `route_fn` from each of `sources` (every node of
/// `graph` when empty) to every other node, mapping each route onto channels
/// with `channel_fn`. Hops are checked against the links of `graph`.
/// `hop_bound` of 0 disables the bound check. Deterministic regardless of
/// thread count.
RouteAnalysis analyze_route_function(const Graph& graph, const RouteFill& route_fn,
                                     const ChannelFill& channel_fn,
                                     std::uint32_t hop_bound = 0,
                                     std::string hop_bound_law = {},
                                     const RouteAnalysisOptions& options = {},
                                     std::span<const NodeId> sources = {});

/// DSN custom routing over a basic DSN (covers DSN-E and DSN-V via `scheme`).
RouteAnalysis analyze_dsn_routes(const Dsn& dsn, ChannelScheme scheme,
                                 const RouteAnalysisOptions& options = {});

/// DSN-D express routing (channels always use the extended classes).
RouteAnalysis analyze_dsn_d_routes(const DsnD& dd,
                                   const RouteAnalysisOptions& options = {});

/// A routing function bound to a topology, together with the state that
/// keeps it callable (router objects, CSR snapshots) and the family's channel
/// mapping and analytic hop bound. The analyzer and the flow tier both build
/// routes through this factory, so "the routes the analyzer proves" and "the
/// routes the flow tier loads links with" are the same definition by
/// construction. `fill_route` and `fill_channels` are safe to call
/// concurrently on distinct buffers; both may reference `topo`, which must
/// outlive the returned object.
struct BoundRouting {
  RouteFill fill_route;
  ChannelFill fill_channels;
  std::shared_ptr<const void> state;  ///< keep-alive for captured routing structures
  std::uint32_t hop_bound = 0;        ///< analytic per-pair bound; 0 = none applies
  std::string hop_bound_law;
  ChannelScheme scheme = ChannelScheme::kBasic;

  /// The s -> t route in a fresh buffer.
  Route route(NodeId s, NodeId t) const {
    Route r;
    fill_route(s, t, r);
    return r;
  }
};

/// Bind `family`'s routing function to `topo`, reconstructing routing
/// parameters from the topology kind/name with require_dsn_params (throws
/// dsn::PreconditionError when the family does not apply or parameters
/// cannot be recovered). Note the up*/down* family materialises two n^2
/// next-hop tables (8 n^2 bytes, 128 MiB at n = 4096) — callers that scale
/// past small n must pick a table-free family.
BoundRouting make_route_function(const Topology& topo, RoutingFamily family);

/// Analyze a Topology with the given family (via make_route_function), from
/// `sources` (every node when empty) to every destination.
RouteAnalysis analyze_topology_routes(const Topology& topo, RoutingFamily family,
                                      const RouteAnalysisOptions& options = {},
                                      std::span<const NodeId> sources = {});

/// The native routing family of a topology kind; kUpDown for kinds without a
/// family-specific routing function.
RoutingFamily default_family(TopologyKind kind);

/// Human-readable channel-class name under a scheme ("up", "main", "finish",
/// "extra"; "c<k>" for basic/unknown classes).
std::string channel_class_name(ChannelScheme scheme, std::uint8_t cls);

/// "17->16 [up] via up link#520" — node pair, channel class, and the physical
/// link (role + id) carrying the channel in `topo`, when one exists.
std::string render_channel(const Topology& topo, const Channel& c, ChannelScheme scheme);

/// Multi-line rendering of a CDG cycle witness as a closed channel chain.
std::string render_cycle_witness(const Topology& topo, const std::vector<Channel>& cycle,
                                 ChannelScheme scheme);

/// Machine-readable report (stable schema; see dsn-lint --json).
Json to_json(const RouteAnalysis& analysis);

/// Multi-line human-readable report.
std::string summary(const RouteAnalysis& analysis);

}  // namespace dsn::analyze
