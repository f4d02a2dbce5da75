// dsn-slint: deterministic — demand streams feed byte-identical replay gates
// in both simulation tiers; every draw comes from a caller-owned seeded Rng.
//
// Finite demand batches for cross-validating the two simulation tiers. A
// TrafficPattern picks destinations; a *demand* is what the application
// layer asks the network to carry (src, dst, size). The flit simulator
// injects a batch as packets (to_injection_trace) and the flow tier runs the
// same batch as flows, so both tiers carry identical demand by construction.
// Open-loop Bernoulli injection is not a batch: the flit simulator draws it
// per host from the TrafficPattern directly.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/sim/traffic.hpp"

namespace dsn {

/// One transfer the application layer wants the network to carry.
struct Demand {
  HostId src = 0;
  HostId dst = 0;
  std::uint64_t flits = 0;
};

/// Deterministic finite batch: every host draws `packets_per_host`
/// destinations from `pattern`, each a demand of `flits_per_packet` flits.
/// Per-host streams are SplitMix64-derived from `seed`, so the batch is a
/// pure function of (pattern, num_hosts, counts, seed) — the cross-validation
/// contract both tiers consume.
std::vector<Demand> pattern_demands(const TrafficPattern& pattern,
                                    std::uint32_t num_hosts,
                                    std::uint32_t packets_per_host,
                                    std::uint32_t flits_per_packet,
                                    std::uint64_t seed);

/// Render a demand batch as a flit-sim injection trace: each demand becomes
/// ceil(flits / packet_flits) packets and each source host injects its
/// packets back-to-back at line rate (one packet start every `packet_flits`
/// cycles), i.e. the NIC never idles while it still has demand. Entries are
/// sorted by cycle as Simulator::set_injection_trace requires.
std::vector<TraceEntry> to_injection_trace(const std::vector<Demand>& demands,
                                           std::uint32_t packet_flits);

}  // namespace dsn
