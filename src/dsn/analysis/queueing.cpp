#include "dsn/analysis/queueing.hpp"

#include <algorithm>
#include <numeric>

namespace dsn {

namespace {

/// Directed-link index consistent with Simulator::link_flit_counts().
std::uint32_t dir_index(const Graph& g, NodeId from, NodeId to) {
  const LinkId link = g.find_link(from, to);
  DSN_ASSERT(link != kInvalidLink, "flow must follow physical links");
  const auto [a, b] = g.link_endpoints(link);
  return 2 * link + (from == a ? 0u : 1u);
}

}  // namespace

std::vector<double> uniform_link_rates(const Topology& topo, const SimRouting& routing,
                                       double packets_per_cycle_per_host,
                                       std::uint32_t hosts_per_switch) {
  const Graph& g = topo.graph;
  const NodeId n = g.num_nodes();
  const double num_hosts = static_cast<double>(n) * hosts_per_switch;
  // Rate from one switch toward one specific destination *switch*: each host
  // picks uniformly among the other num_hosts-1 hosts; hosts on the same
  // switch still traverse the network only if dst is off-switch, so pairs
  // with src_switch == dst_switch carry no link load.
  const double per_switch_pair_rate = packets_per_cycle_per_host * hosts_per_switch *
                                      hosts_per_switch / (num_hosts - 1.0);

  std::vector<double> rates(g.num_links() * 2, 0.0);
  std::vector<double> inflow(n);
  std::vector<NodeId> order(n);

  for (NodeId t = 0; t < n; ++t) {
    // Process nodes by decreasing distance to t so each node's total flow is
    // final before it is split over its minimal next hops.
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return routing.distance(a, t) > routing.distance(b, t);
    });
    std::fill(inflow.begin(), inflow.end(), 0.0);
    for (const NodeId u : order) {
      if (u == t) continue;
      const double flow = per_switch_pair_rate + inflow[u];
      std::size_t count = 0;
      routing.for_each_minimal_next_hop(u, t, [&](NodeId) { ++count; });
      DSN_ASSERT(count > 0, "connected graph must provide next hops");
      const double share = flow / static_cast<double>(count);
      routing.for_each_minimal_next_hop(u, t, [&](NodeId w) {
        inflow[w] += share;
        rates[dir_index(g, u, w)] += share;
      });
    }
  }
  return rates;
}

QueueingPrediction predict_uniform_latency(const Topology& topo,
                                           const SimRouting& routing,
                                           const SimConfig& config) {
  const Graph& g = topo.graph;
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(n >= 2, "need at least two switches");

  const double pkt_rate = config.packet_rate_per_cycle();
  const auto rates =
      uniform_link_rates(topo, routing, pkt_rate, config.hosts_per_switch);

  // Per-link M/D/1 waiting time in cycles.
  const double service = static_cast<double>(config.packet_flits);
  std::vector<double> wait(rates.size(), 0.0);
  QueueingPrediction out;
  double util_sum = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rho = rates[i] * service;
    util_sum += rho;
    out.max_link_utilization = std::max(out.max_link_utilization, rho);
    if (rho >= 1.0) {
      out.stable = false;
      wait[i] = 0.0;  // reported latency is meaningless when unstable
    } else {
      wait[i] = rho * service / (2.0 * (1.0 - rho));
    }
  }
  out.avg_link_utilization = rates.empty() ? 0.0 : util_sum / static_cast<double>(rates.size());
  if (!out.stable) return out;

  // Expected end-to-end delay: DP per destination over the routing DAG.
  // D(u) = mean over next hops w of [wait(u->w) + D(w)], plus fixed per-hop
  // costs accumulated from the expected hop count.
  const double cyc_ns = config.cycle_ns();
  const double router = static_cast<double>(config.router_delay_cycles());
  const double link = static_cast<double>(config.link_delay_cycles());

  std::vector<double> d(n), hops(n);
  std::vector<NodeId> order(n);
  double delay_total = 0.0;
  double pairs = 0.0;

  for (NodeId t = 0; t < n; ++t) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return routing.distance(a, t) < routing.distance(b, t);
    });
    d[t] = 0.0;
    hops[t] = 0.0;
    for (const NodeId u : order) {
      if (u == t) continue;
      double acc = 0.0, h = 0.0;
      std::size_t count = 0;
      routing.for_each_minimal_next_hop(u, t, [&](NodeId w) {
        acc += wait[dir_index(g, u, w)] + d[w];
        h += hops[w];
        ++count;
      });
      d[u] = acc / static_cast<double>(count);
      hops[u] = 1.0 + h / static_cast<double>(count);
    }
    for (NodeId s = 0; s < n; ++s) {
      if (s == t) continue;
      // Fixed costs: router per switch traversal (hops+1), link delay for
      // injection + each hop + ejection, serialization once, plus queueing.
      const double fixed = (hops[s] + 1.0) * router + (hops[s] + 2.0) * link +
                           static_cast<double>(config.packet_flits);
      delay_total += (fixed + d[s]) * cyc_ns;
      pairs += 1.0;
    }
  }
  out.avg_latency_ns = delay_total / pairs;
  return out;
}

}  // namespace dsn
