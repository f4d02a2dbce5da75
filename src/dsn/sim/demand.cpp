// dsn-slint: deterministic — see demand.hpp.
#include "dsn/sim/demand.hpp"

#include <algorithm>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"

namespace dsn {

std::vector<Demand> pattern_demands(const TrafficPattern& pattern,
                                    std::uint32_t num_hosts,
                                    std::uint32_t packets_per_host,
                                    std::uint32_t flits_per_packet,
                                    std::uint64_t seed) {
  DSN_REQUIRE(num_hosts > 0, "pattern demands need at least one host");
  DSN_REQUIRE(flits_per_packet > 0, "packet size must be positive");
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(num_hosts) * packets_per_host);
  SplitMix64 sm(seed);
  for (HostId h = 0; h < num_hosts; ++h) {
    Rng rng(sm.next());
    for (std::uint32_t k = 0; k < packets_per_host; ++k) {
      demands.push_back({h, pattern.dest(h, rng), flits_per_packet});
    }
  }
  return demands;
}

std::vector<TraceEntry> to_injection_trace(const std::vector<Demand>& demands,
                                           std::uint32_t packet_flits) {
  DSN_REQUIRE(packet_flits > 0, "packet size must be positive");
  HostId max_host = 0;
  for (const Demand& d : demands) max_host = std::max(max_host, d.src);
  // Next free injection slot (in packets) per source host.
  std::vector<std::uint64_t> next_slot(demands.empty() ? 0 : max_host + 1, 0);

  std::vector<TraceEntry> trace;
  for (const Demand& d : demands) {
    const std::uint64_t packets = (d.flits + packet_flits - 1) / packet_flits;
    for (std::uint64_t p = 0; p < packets; ++p) {
      trace.push_back({next_slot[d.src]++ * packet_flits, d.src, d.dst});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceEntry& a, const TraceEntry& b) { return a.cycle < b.cycle; });
  return trace;
}

}  // namespace dsn
