// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/analysis/route_analysis.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "dsn/analysis/load_bound.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/dor.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/greedy.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/routing/updown.hpp"

namespace dsn::analyze {

#if DSN_OBS
namespace {

struct AnalysisMetrics {
  obs::MetricId routes = obs::MetricsRegistry::global().counter("dsn.analysis.routes_checked");
  obs::MetricId shard_ns = obs::MetricsRegistry::global().counter("dsn.analysis.shard_ns");
  obs::MetricId shards_run = obs::MetricsRegistry::global().counter("dsn.analysis.shards");

  static const AnalysisMetrics& get() {
    static AnalysisMetrics metrics;
    return metrics;
  }
};

}  // namespace
#endif  // DSN_OBS

const char* to_string(RoutingFamily family) {
  switch (family) {
    case RoutingFamily::kDsn: return "dsn";
    case RoutingFamily::kDsnD: return "dsn-d";
    case RoutingFamily::kTorusDor: return "dor";
    case RoutingFamily::kGreedyGrid: return "greedy";
    case RoutingFamily::kUpDown: return "updown";
  }
  return "unknown";
}

const char* to_string(ChannelScheme scheme) {
  return scheme == ChannelScheme::kExtended ? "extended" : "basic";
}

// ---------------------------------------------------------------------------
// Core all-pairs sweep
// ---------------------------------------------------------------------------

namespace {

/// Evidence against one per-route property: whether any route violated it,
/// and the first `cap` violating routes.
struct Refutation {
  bool refuted = false;
  std::vector<RouteWitness> witnesses;

  void add(std::size_t cap, NodeId s, NodeId t, const std::vector<NodeId>& path,
           std::string reason) {
    refuted = true;
    if (witnesses.size() < cap) witnesses.push_back({s, t, path, std::move(reason)});
  }

  /// Fold another shard's evidence in, keeping the first `cap` witnesses.
  void merge(Refutation& from, std::size_t cap) {
    refuted = refuted || from.refuted;
    for (auto& w : from.witnesses) {
      if (witnesses.size() >= cap) break;
      witnesses.push_back(std::move(w));
    }
  }
};

/// Thread-local accumulator for a contiguous source range.
struct Shard {
  ChannelDependencyGraph cdg;
  std::uint32_t max_hops = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t fallbacks = 0;
  Refutation loops, endpoints, phases, bounds;
  std::vector<std::uint32_t> stamp;  // node -> last generation seen
  std::uint32_t gen = 0;
};

const char* phase_name(RoutePhase phase) {
  switch (phase) {
    case RoutePhase::kPreWork: return "PRE-WORK";
    case RoutePhase::kMain: return "MAIN";
    case RoutePhase::kFinish: return "FINISH";
  }
  return "unknown";
}

}  // namespace

RouteAnalysis analyze_route_function(const Graph& graph, const RouteFill& route_fn,
                                     const ChannelFill& channel_fn, std::uint32_t hop_bound,
                                     std::string hop_bound_law,
                                     const RouteAnalysisOptions& options,
                                     std::span<const NodeId> sources) {
  const NodeId n = graph.num_nodes();
  DSN_REQUIRE(n >= 2, "route analysis needs at least two nodes");
  for (const NodeId s : sources) DSN_REQUIRE(s < n, "route analysis source out of range");
  const std::size_t num_sources = sources.empty() ? n : sources.size();
  const auto source = [&](std::size_t i) {
    return sources.empty() ? static_cast<NodeId>(i) : sources[i];
  };

  ThreadPool& pool = ThreadPool::global();
  const std::size_t num_shards = pool.shard_count(num_sources);
  std::vector<Shard> shards(num_shards);

  DSN_OBS_SPAN("analysis.route_sweep");
  pool.parallel_for(0, num_shards, [&](std::size_t k) {
    DSN_OBS_TIMER(AnalysisMetrics::get().shard_ns,
                  AnalysisMetrics::get().shards_run);
    Shard& sh = shards[k];
    sh.stamp.assign(n, 0);
    std::vector<NodeId> path;
    path.reserve(64);
    Route r;
    std::vector<Channel> channels;
    const std::size_t begin = k * num_sources / num_shards;
    const std::size_t end = (k + 1) * num_sources / num_shards;
    DSN_OBS_ADD(AnalysisMetrics::get().routes,
                static_cast<std::uint64_t>(end - begin) * (n - 1));
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId s = source(i);
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        route_fn(s, t, r);
        const auto len = static_cast<std::uint32_t>(r.length());
        sh.total_hops += len;
        sh.max_hops = std::max(sh.max_hops, len);
        if (r.used_fallback) ++sh.fallbacks;

        // Reachability: non-empty hop chain s -> ... -> t without gaps.
        // Phase order: the first hop whose phase falls below its
        // predecessor's, if any.
        path.clear();
        path.push_back(s);
        NodeId at = s;
        RoutePhase phase = RoutePhase::kPreWork, fallen_from = RoutePhase::kPreWork;
        const RouteHop* regression = nullptr;
        bool chained = !r.hops.empty() && r.hops.front().from == s;
        if (chained) {
          for (const RouteHop& h : r.hops) {
            if (h.from != at) {
              chained = false;
              break;
            }
            if (h.phase < phase && regression == nullptr) {
              regression = &h;
              fallen_from = phase;
            }
            phase = h.phase;
            at = h.to;
            path.push_back(at);
          }
        }
        if (!chained || at != t) {
          sh.endpoints.add(options.max_witnesses, s, t, path,
                           !chained ? "route hop chain is broken or empty"
                                    : "route terminates at node " + std::to_string(at) +
                                          " instead of the destination");
        } else {
          // Loop freedom: no node appears twice in the walked sequence.
          ++sh.gen;
          for (const NodeId v : path) {
            if (sh.stamp[v] == sh.gen) {
              sh.loops.add(options.max_witnesses, s, t, path,
                           "route revisits node " + std::to_string(v));
              break;
            }
            sh.stamp[v] = sh.gen;
          }
        }
        if (regression != nullptr) {
          sh.phases.add(options.max_witnesses, s, t, path,
                        std::string("route phase falls from ") + phase_name(fallen_from) +
                            " to " + phase_name(regression->phase) + " at node " +
                            std::to_string(regression->from));
        }
        if (hop_bound != 0 && len > hop_bound) {
          sh.bounds.add(options.max_witnesses, s, t, path,
                        std::to_string(len) + " hops exceed the analytic bound of " +
                            std::to_string(hop_bound));
        }
        channel_fn(r, channels);
        sh.cdg.add_route(channels);
      }
    }
  });

  // Deterministic merge in shard order.
  RouteAnalysis ra;
  ra.n = n;
  ra.pairs = static_cast<std::uint64_t>(num_sources) * (n - 1);
  ra.hop_bound = hop_bound;
  ra.hop_bound_law = std::move(hop_bound_law);
  ChannelDependencyGraph cdg = std::move(shards[0].cdg);
  Refutation loops, endpoints, phases, bounds;
  std::uint64_t total_hops = 0;
  for (std::size_t k = 0; k < num_shards; ++k) {
    Shard& sh = shards[k];
    if (k > 0) cdg.merge(sh.cdg);
    ra.max_hops = std::max(ra.max_hops, sh.max_hops);
    total_hops += sh.total_hops;
    ra.fallback_routes += sh.fallbacks;
    loops.merge(sh.loops, options.max_witnesses);
    endpoints.merge(sh.endpoints, options.max_witnesses);
    phases.merge(sh.phases, options.max_witnesses);
    bounds.merge(sh.bounds, options.max_witnesses);
  }
  ra.avg_hops = static_cast<double>(total_hops) / static_cast<double>(ra.pairs);
  ra.loop_free = !loops.refuted;
  ra.all_reachable = !endpoints.refuted;
  ra.phases_ordered = !phases.refuted;
  ra.within_hop_bound = !bounds.refuted;
  ra.loop_witnesses = std::move(loops.witnesses);
  ra.endpoint_witnesses = std::move(endpoints.witnesses);
  ra.phase_witnesses = std::move(phases.witnesses);
  ra.bound_witnesses = std::move(bounds.witnesses);

  // Hops on links: every hop is some channel of the merged CDG, so checking
  // each distinct channel once covers every hop of every route.
  for (const Channel& c : cdg.channels()) {
    if (c.from < n && c.to < n && graph.has_link(c.from, c.to)) continue;
    ra.hops_on_links = false;
    if (ra.non_link_channels.size() < options.max_witnesses) ra.non_link_channels.push_back(c);
  }

  // Static channel load.
  const LoadSummary loads = summarize_loads(cdg.use_counts());
  ra.load.channels = cdg.use_counts().size();
  ra.load.total = loads.total;
  ra.load.max_load = loads.max_load;
  ra.load.mean_load = loads.mean;
  ra.load.gini = loads.gini;
  if (ra.load.max_load > 0) {
    ra.load.max_channel = cdg.channels()[loads.max_index];
    ra.load.max_normalized =
        static_cast<double>(ra.load.max_load) / static_cast<double>(n - 1);
    ra.load.throughput_bound = 1.0 / ra.load.max_normalized;
  }

  // Full-CDG acyclicity with a minimal cycle witness.
  ra.cdg_channels = cdg.num_channels();
  ra.cdg_dependencies = cdg.num_dependencies();
  ra.cdg_acyclic = cdg.is_acyclic();
  if (!ra.cdg_acyclic) {
    ra.cdg_cycle = options.find_min_cycle ? cdg.find_shortest_cycle() : cdg.find_cycle();
  }
  return ra;
}

// ---------------------------------------------------------------------------
// Family-specific entry points
// ---------------------------------------------------------------------------

namespace {

/// The paper's analytic per-pair bound for the DSN custom routing: Fact 2 /
/// Theorem 2 give a routing diameter of 3p + r when x > p - log p. Outside
/// the premise no bound is claimed (returns 0).
std::pair<std::uint32_t, std::string> dsn_hop_bound(const Dsn& d) {
  if (d.x() > d.p() - ilog2_ceil(d.p())) {
    return {3 * d.p() + d.r(),
            "Fact 2 / Theorem 2 (x > p - log p): 3p + r = " +
                std::to_string(3 * d.p() + d.r())};
  }
  return {0, "no analytic bound: premise x > p - log p not met"};
}

/// Write a node path as a single-phase route into `out`.
void path_to_route(NodeId s, NodeId t, const std::vector<NodeId>& path, Route& out) {
  out.reset(s, t);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    out.hops.push_back({path[i], path[i + 1], RoutePhase::kMain, HopKind::kSucc});
  }
}

void single_class_channels(const Route& r, std::vector<Channel>& out) {
  dsn_route_channels_basic(r, out);
}

}  // namespace

RouteAnalysis analyze_dsn_routes(const Dsn& dsn, ChannelScheme scheme,
                                 const RouteAnalysisOptions& options) {
  const DsnRouter router(dsn);
  auto [bound, law] = dsn_hop_bound(dsn);
  const ChannelFill channels =
      scheme == ChannelScheme::kExtended
          ? ChannelFill([&](const Route& r, std::vector<Channel>& out) {
              dsn_route_channels_extended(dsn, r, out);
            })
          : &single_class_channels;
  RouteAnalysis ra = analyze_route_function(
      dsn.topology().graph, [&](NodeId s, NodeId t, Route& out) { router.route(s, t, out); },
      channels, bound, std::move(law), options);
  ra.topology = dsn.topology().name;
  ra.family = RoutingFamily::kDsn;
  ra.scheme = scheme;
  return ra;
}

RouteAnalysis analyze_dsn_d_routes(const DsnD& dd, const RouteAnalysisOptions& options) {
  auto [bound, law] = dsn_hop_bound(dd.base());
  RouteAnalysis ra = analyze_route_function(
      dd.topology().graph, [&](NodeId s, NodeId t, Route& out) { route_dsn_d(dd, s, t, out); },
      [&](const Route& r, std::vector<Channel>& out) {
        dsn_route_channels_extended(dd.base(), r, out);
      },
      bound, std::move(law), options);
  ra.topology = dd.topology().name;
  ra.family = RoutingFamily::kDsnD;
  ra.scheme = ChannelScheme::kExtended;
  return ra;
}

RoutingFamily default_family(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDsn:
    case TopologyKind::kDsnE:
    case TopologyKind::kDsnBidir:
      return RoutingFamily::kDsn;
    case TopologyKind::kDsnD:
      return RoutingFamily::kDsnD;
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D:
      return RoutingFamily::kTorusDor;
    case TopologyKind::kKleinberg:
      return RoutingFamily::kGreedyGrid;
    default:
      return RoutingFamily::kUpDown;
  }
}

BoundRouting make_route_function(const Topology& topo, RoutingFamily family) {
  const std::uint32_t n = topo.num_nodes();
  DSN_REQUIRE(n >= 2, "route binding needs at least two nodes");

  BoundRouting b;
  switch (family) {
    case RoutingFamily::kDsn: {
      const DsnParams params = require_dsn_params(
          topo, {TopologyKind::kDsn, TopologyKind::kDsnE, TopologyKind::kDsnBidir},
          "family 'dsn'");
      if (topo.kind == TopologyKind::kDsnE) b.scheme = ChannelScheme::kExtended;
      struct State {
        Dsn base;
        DsnRouter router;
        explicit State(std::uint32_t n, std::uint32_t x) : base(n, x), router(base) {}
      };
      auto state = std::make_shared<const State>(n, params.x);
      auto [bound, law] = dsn_hop_bound(state->base);
      b.hop_bound = bound;
      b.hop_bound_law = std::move(law);
      b.fill_route = [state](NodeId s, NodeId t, Route& out) {
        state->router.route(s, t, out);
      };
      b.fill_channels = b.scheme == ChannelScheme::kExtended
                            ? ChannelFill([state](const Route& r, std::vector<Channel>& out) {
                                dsn_route_channels_extended(state->base, r, out);
                              })
                            : &single_class_channels;
      b.state = std::move(state);
      return b;
    }
    case RoutingFamily::kDsnD: {
      const DsnParams params = require_dsn_params(topo, {TopologyKind::kDsnD}, "family 'dsn-d'");
      auto state = std::make_shared<const DsnD>(n, params.xd);
      auto [bound, law] = dsn_hop_bound(state->base());
      b.hop_bound = bound;
      b.hop_bound_law = std::move(law);
      b.scheme = ChannelScheme::kExtended;
      b.fill_route = [state](NodeId s, NodeId t, Route& out) {
        route_dsn_d(*state, s, t, out);
      };
      b.fill_channels = [state](const Route& r, std::vector<Channel>& out) {
        dsn_route_channels_extended(state->base(), r, out);
      };
      b.state = std::move(state);
      return b;
    }
    case RoutingFamily::kTorusDor: {
      DSN_REQUIRE(topo.kind == TopologyKind::kTorus2D ||
                      topo.kind == TopologyKind::kTorus3D,
                  "family 'dor' needs a torus topology");
      std::uint32_t bound = 0;
      for (const std::uint32_t d : topo.dims) bound += d / 2;
      b.hop_bound = bound;
      b.hop_bound_law = "DOR diameter: sum of per-dimension wrap distances = " +
                        std::to_string(bound);
      b.fill_route = [&topo](NodeId s, NodeId t, Route& out) {
        path_to_route(s, t, route_torus_dor(topo, s, t), out);
      };
      b.fill_channels = &single_class_channels;
      return b;
    }
    case RoutingFamily::kGreedyGrid: {
      DSN_REQUIRE(topo.dims.size() == 2 && topo.dims[0] == topo.dims[1] &&
                      static_cast<std::uint64_t>(topo.dims[0]) * topo.dims[1] == n,
                  "family 'greedy' needs a square grid topology");
      // One CSR snapshot shared by all walks.
      auto state = std::make_shared<const CsrView>(topo.graph);
      const std::uint32_t side = topo.dims[0];
      b.hop_bound_law = "no analytic per-pair bound (greedy is O(log^2 n) in expectation)";
      b.fill_route = [state, side](NodeId s, NodeId t, Route& out) {
        path_to_route(s, t, route_greedy_grid(*state, side, s, t), out);
      };
      b.fill_channels = &single_class_channels;
      b.state = std::move(state);
      return b;
    }
    case RoutingFamily::kUpDown: {
      const CsrView csr(topo.graph);
      DSN_REQUIRE(is_connected(csr), "up*/down* analysis needs a connected topology");
      auto state = std::make_shared<const UpDownRouting>(csr, 0, ThreadPool::global());
      b.hop_bound_law = "no analytic per-pair bound for up*/down*";
      b.fill_route = [state](NodeId s, NodeId t, Route& out) {
        path_to_route(s, t, state->route(s, t), out);
      };
      b.fill_channels = &single_class_channels;
      b.state = std::move(state);
      return b;
    }
  }
  throw PreconditionError("unknown routing family");
}

RouteAnalysis analyze_topology_routes(const Topology& topo, RoutingFamily family,
                                      const RouteAnalysisOptions& options,
                                      std::span<const NodeId> sources) {
  const BoundRouting b = make_route_function(topo, family);
  RouteAnalysis ra = analyze_route_function(topo.graph, b.fill_route, b.fill_channels,
                                            b.hop_bound, b.hop_bound_law, options, sources);
  ra.topology = topo.name;
  ra.family = family;
  ra.scheme = b.scheme;
  return ra;
}

// ---------------------------------------------------------------------------
// Witness rendering
// ---------------------------------------------------------------------------

std::string channel_class_name(ChannelScheme scheme, std::uint8_t cls) {
  if (scheme == ChannelScheme::kExtended) {
    switch (cls) {
      case kClassUp: return "up";
      case kClassMain: return "main";
      case kClassFinish: return "finish";
      case kClassExtra: return "extra";
      default: break;
    }
  }
  std::string name = "c";
  name += std::to_string(cls);
  return name;
}

std::string render_channel(const Topology& topo, const Channel& c, ChannelScheme scheme) {
  std::ostringstream os;
  os << c.from << "->" << c.to << " [" << channel_class_name(scheme, c.cls) << "]";
  if (c.from >= topo.num_nodes() || c.to >= topo.num_nodes()) return os.str();

  // Pick the physical link carrying this channel: among parallel (from, to)
  // links prefer the one whose role matches the channel class (Up channels
  // ride Up links, Extra channels ride Extra links, everything else rides the
  // ring/shortcut fabric).
  const LinkRole preferred = c.cls == kClassUp    ? LinkRole::kUp
                             : c.cls == kClassExtra ? LinkRole::kExtra
                                                    : LinkRole::kRing;
  LinkId chosen = kInvalidLink;
  for (const AdjHalf& h : topo.graph.neighbors(c.from)) {
    if (h.to != c.to) continue;
    if (chosen == kInvalidLink) chosen = h.link;
    if (scheme == ChannelScheme::kExtended && h.link < topo.link_roles.size() &&
        topo.link_roles[h.link] == preferred) {
      chosen = h.link;
      break;
    }
  }
  if (chosen != kInvalidLink) {
    os << " via ";
    if (chosen < topo.link_roles.size()) os << to_string(topo.link_roles[chosen]) << " ";
    os << "link#" << chosen;
  } else {
    os << " (no physical link)";
  }
  return os.str();
}

std::string render_cycle_witness(const Topology& topo, const std::vector<Channel>& cycle,
                                 ChannelScheme scheme) {
  std::ostringstream os;
  os << "channel-cycle witness (" << cycle.size() << " channels, each waits on the next):\n";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    os << "  (" << i << ") " << render_channel(topo, cycle[i], scheme) << "\n";
  }
  os << "  -> (0) closes the cycle";
  return os.str();
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

namespace {

Json channel_json(const Channel& c, ChannelScheme scheme) {
  Json j = Json::object();
  j.set("from", static_cast<std::uint64_t>(c.from));
  j.set("to", static_cast<std::uint64_t>(c.to));
  j.set("cls", static_cast<std::uint64_t>(c.cls));
  j.set("class", channel_class_name(scheme, c.cls));
  return j;
}

Json witness_json(const RouteWitness& w) {
  Json j = Json::object();
  j.set("src", static_cast<std::uint64_t>(w.src));
  j.set("dst", static_cast<std::uint64_t>(w.dst));
  j.set("reason", w.reason);
  Json path = Json::array();
  for (const NodeId v : w.path) path.push_back(static_cast<std::uint64_t>(v));
  j.set("path", std::move(path));
  return j;
}

}  // namespace

Json to_json(const RouteAnalysis& a) {
  Json j = Json::object();
  j.set("topology", a.topology);
  j.set("family", to_string(a.family));
  j.set("scheme", to_string(a.scheme));
  j.set("n", static_cast<std::uint64_t>(a.n));
  j.set("pairs", a.pairs);

  Json props = Json::object();
  props.set("loop_free", a.loop_free);
  props.set("all_reachable", a.all_reachable);
  props.set("hops_on_links", a.hops_on_links);
  props.set("phases_ordered", a.phases_ordered);
  props.set("within_hop_bound", a.within_hop_bound);
  props.set("no_fallback", a.fallback_routes == 0);
  props.set("cdg_acyclic", a.cdg_acyclic);
  j.set("properties", std::move(props));

  j.set("hop_bound", a.hop_bound == 0 ? Json() : Json(static_cast<std::uint64_t>(a.hop_bound)));
  j.set("hop_bound_law", a.hop_bound_law);
  j.set("max_hops", static_cast<std::uint64_t>(a.max_hops));
  j.set("avg_hops", a.avg_hops);
  j.set("fallback_routes", a.fallback_routes);

  Json witnesses = Json::object();
  Json loops = Json::array(), endpoints = Json::array(), bounds = Json::array();
  Json phases = Json::array(), non_links = Json::array();
  for (const auto& w : a.loop_witnesses) loops.push_back(witness_json(w));
  for (const auto& w : a.endpoint_witnesses) endpoints.push_back(witness_json(w));
  for (const auto& w : a.bound_witnesses) bounds.push_back(witness_json(w));
  for (const auto& w : a.phase_witnesses) phases.push_back(witness_json(w));
  for (const Channel& c : a.non_link_channels) non_links.push_back(channel_json(c, a.scheme));
  witnesses.set("loops", std::move(loops));
  witnesses.set("endpoints", std::move(endpoints));
  witnesses.set("hop_bound", std::move(bounds));
  witnesses.set("phase_order", std::move(phases));
  witnesses.set("non_links", std::move(non_links));
  j.set("witnesses", std::move(witnesses));

  Json load = Json::object();
  load.set("channels", static_cast<std::uint64_t>(a.load.channels));
  load.set("total", a.load.total);
  load.set("max", a.load.max_load);
  load.set("mean", a.load.mean_load);
  load.set("gini", a.load.gini);
  load.set("max_channel", channel_json(a.load.max_channel, a.scheme));
  load.set("max_normalized", a.load.max_normalized);
  load.set("throughput_bound", a.load.throughput_bound);
  j.set("load", std::move(load));

  Json cdg = Json::object();
  cdg.set("channels", static_cast<std::uint64_t>(a.cdg_channels));
  cdg.set("dependencies", static_cast<std::uint64_t>(a.cdg_dependencies));
  cdg.set("acyclic", a.cdg_acyclic);
  Json cycle = Json::array();
  for (const Channel& c : a.cdg_cycle) cycle.push_back(channel_json(c, a.scheme));
  cdg.set("cycle", std::move(cycle));
  j.set("cdg", std::move(cdg));
  return j;
}

std::string summary(const RouteAnalysis& a) {
  std::ostringstream os;
  const auto verdict = [](bool proven) { return proven ? "PROVEN" : "REFUTED"; };
  os << "route-analysis " << a.topology << " [family=" << to_string(a.family)
     << " scheme=" << to_string(a.scheme) << " n=" << a.n << " pairs=" << a.pairs
     << "]\n";
  os << "  loop freedom      " << verdict(a.loop_free) << "\n";
  os << "  reachability      " << verdict(a.all_reachable) << "\n";
  os << "  hops on links     " << verdict(a.hops_on_links) << "\n";
  os << "  phase order       " << verdict(a.phases_ordered) << "\n";
  if (a.hop_bound != 0) {
    os << "  hop bound         " << verdict(a.within_hop_bound) << " (max "
       << a.max_hops << " vs " << a.hop_bound << "; " << a.hop_bound_law << ")\n";
  } else {
    os << "  hop bound         SKIPPED (" << a.hop_bound_law << "; max " << a.max_hops
       << ")\n";
  }
  os << "  fallback routes   " << a.fallback_routes << "\n";
  os << "  hops              max " << a.max_hops << ", avg " << a.avg_hops << "\n";
  os << "  channel load      max " << a.load.max_load << ", mean " << a.load.mean_load
     << ", gini " << a.load.gini << " over " << a.load.channels << " channels\n";
  os << "  throughput bound  " << a.load.throughput_bound
     << " (uniform injection rate saturating the hottest channel)\n";
  os << "  CDG               " << a.cdg_channels << " channels, " << a.cdg_dependencies
     << " dependencies: " << (a.cdg_acyclic ? "ACYCLIC (deadlock-free)" : "CYCLIC");
  for (const auto* group : {&a.loop_witnesses, &a.endpoint_witnesses, &a.phase_witnesses,
                            &a.bound_witnesses}) {
    for (const RouteWitness& w : *group) {
      os << "\n  witness (" << w.src << " -> " << w.dst << "): " << w.reason;
    }
  }
  for (const Channel& c : a.non_link_channels) {
    os << "\n  witness channel " << c.from << "->" << c.to << " ["
       << channel_class_name(a.scheme, c.cls) << "]: hop is not a link of the graph";
  }
  return os.str();
}

}  // namespace dsn::analyze
