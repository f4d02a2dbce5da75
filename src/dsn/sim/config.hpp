// Simulator configuration mirroring the paper's §VII-A setup:
//   - virtual cut-through switching, 4 virtual channels;
//   - >100 ns per-hop header latency (routing + VC allocation + switch
//     allocation + crossbar);
//   - 20 ns flit-injection + link delay;
//   - 33-flit packets, 256-bit flits, 96 Gbps effective link bandwidth;
//   - 64 switches with 4 compute hosts each.
//
// Internally the simulator is cycle-stepped with one cycle equal to the flit
// serialization time (kFlitBits / kLinkBwGbps), so every link moves at most
// one flit per cycle and all ns-valued delays are rounded up to whole cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dsn/common/error.hpp"

namespace dsn {

/// Switching mode: virtual cut-through forwards a packet only when the
/// downstream buffer can absorb it entirely; wormhole forwards as soon as one
/// flit of space exists, letting blocked packets stall stretched across
/// switches (which is why its deadlock analysis needs indirect dependencies).
enum class SwitchingMode : std::uint8_t { kVirtualCutThrough, kWormhole };

/// Flit width in bits and effective link bandwidth in Gbit/s (§VII-A).
inline constexpr double kFlitBits = 256.0;
inline constexpr double kLinkBwGbps = 96.0;
/// Longest delay a packet requeued after a fault waits before its retry.
inline constexpr std::uint64_t kRetryBackoffCapCycles = 4096;

struct SimConfig {
  SwitchingMode switching = SwitchingMode::kVirtualCutThrough;
  std::uint32_t vcs = 4;
  /// Input buffer depth per (port, VC) in flits. Virtual cut-through requires
  /// at least one full packet; VC allocation demands packet_flits credits.
  std::uint32_t buffer_flits = 33;
  std::uint32_t packet_flits = 33;  ///< incl. 1 header flit
  double router_delay_ns = 100.0;
  double link_delay_ns = 20.0;  ///< flit injection delay + link delay
  std::uint32_t hosts_per_switch = 4;

  std::uint64_t warmup_cycles = 20'000;
  std::uint64_t measure_cycles = 60'000;
  std::uint64_t drain_cycles = 120'000;  ///< cap on the post-measurement drain

  /// Offered load per host in Gbit/s (converted to flits/cycle internally).
  double offered_gbps_per_host = 4.0;
  std::uint64_t seed = 1;

  /// Record one PacketTrace per delivered measured packet (up to
  /// trace_limit), retrievable via Simulator::packet_traces().
  bool record_packet_traces = false;
  std::size_t trace_limit = 100'000;

  // --- live fault injection & recovery (see dsn/sim/fault.hpp) ------------
  /// Bucket width of the degradation curve: delivered/dropped/retried counts
  /// are aggregated into SimResult::epochs per epoch_cycles-cycle bucket
  /// (0 disables the curve).
  std::uint64_t epoch_cycles = 0;
  /// Rebuild the policy's routing state (up*/down* re-derivation, masked
  /// tables) after every topology-changing fault event.
  bool rebuild_routing_on_fault = true;
  /// Requeue packets damaged by a fault at their source NIC with bounded
  /// exponential backoff instead of dropping them outright.
  bool retry_on_fault = true;
  std::uint32_t max_retries = 8;
  /// First-retry delay; the k-th retry of a packet waits
  /// min(retry_backoff_cycles << (k-1), kRetryBackoffCapCycles).
  std::uint64_t retry_backoff_cycles = 64;
  /// Drop packets older than this many cycles at their next routing attempt
  /// (0 disables). Livelock guard for destinations inside a dead region.
  std::uint64_t packet_ttl_cycles = 0;

  // --- simulator core selection (see dsn/sim/simulator.hpp) ---------------
  /// Run the original full-scan core instead of the active-set core. The two
  /// cores produce byte-identical SimResult for any sim_threads value; the
  /// legacy core exists as the equivalence baseline (ctest -L determinism).
  /// No CLI flag selects it: only the tests and bench/micro_sim set it.
  bool legacy_core = false;
  /// Shard count for the active-set core (1 = serial inline execution, the
  /// default; 0 = use the global ThreadPool's worker count). Results are
  /// byte-identical for every value: cross-shard flit handoff goes through
  /// per-shard mailboxes drained in shard order at the epoch barrier.
  std::uint32_t sim_threads = 1;

  /// Nanoseconds per simulator cycle (= flit serialization time).
  double cycle_ns() const { return kFlitBits / kLinkBwGbps; }
  std::uint64_t router_delay_cycles() const {
    return static_cast<std::uint64_t>((router_delay_ns + cycle_ns() - 1e-9) / cycle_ns());
  }
  std::uint64_t link_delay_cycles() const {
    return static_cast<std::uint64_t>((link_delay_ns + cycle_ns() - 1e-9) / cycle_ns());
  }
  /// Offered load in flits per cycle per host (1.0 saturates a link).
  double injection_rate_flits_per_cycle() const {
    return offered_gbps_per_host / kLinkBwGbps;
  }
  /// Bernoulli packet-generation probability per host per cycle.
  double packet_rate_per_cycle() const {
    return injection_rate_flits_per_cycle() / static_cast<double>(packet_flits);
  }
  /// Convert a measured flits/cycle/host rate back to Gbit/s per host.
  double flits_per_cycle_to_gbps(double rate) const { return rate * kLinkBwGbps; }

  /// Throws PreconditionError naming the first refused field and its value.
  void validate() const {
    if (vcs < 1) refuse_field("sim vcs", vcs, "positive");
    if (packet_flits < 1) refuse_field("sim packet_flits", packet_flits, "positive");
    if (buffer_flits < 1) refuse_field("sim buffer_flits", buffer_flits, "positive");
    if (switching != SwitchingMode::kWormhole && buffer_flits < packet_flits) {
      refuse_field("sim buffer_flits", buffer_flits,
                   "at least packet_flits = " + std::to_string(packet_flits) +
                       " under virtual cut-through");
    }
    if (hosts_per_switch < 1) refuse_field("sim hosts_per_switch", hosts_per_switch, "positive");
    if (!(offered_gbps_per_host >= 0))
      refuse_field("sim offered_gbps_per_host", offered_gbps_per_host, "non-negative");
    if (retry_backoff_cycles < 1 || retry_backoff_cycles > kRetryBackoffCapCycles) {
      refuse_field("sim retry_backoff_cycles", retry_backoff_cycles,
                   "in [1, " + std::to_string(kRetryBackoffCapCycles) + "] cycles (the cap)");
    }
  }
};

}  // namespace dsn
