// Packet and flit records for the cycle-accurate simulator. Packets live in a
// recycling pool (slots are reused after ejection) so long saturated runs do
// not grow memory without bound; flits carry their packet's slot index.
#pragma once

#include <cstdint>

#include "dsn/common/types.hpp"

namespace dsn {

using PacketSlot = std::uint32_t;

/// Sentinel slot value (no packet); used by the fault-recovery bookkeeping.
inline constexpr PacketSlot kInvalidPacketSlot = 0xffffffffu;

struct Packet {
  std::uint64_t id = 0;  ///< generation order: packets generated before this one
  HostId src_host = 0;
  HostId dst_host = 0;
  NodeId src_switch = 0;
  NodeId dst_switch = 0;
  std::uint64_t gen_cycle = 0;     ///< creation time (enters the source queue)
  std::uint64_t inject_cycle = 0;  ///< head flit leaves the NIC
  std::uint32_t hops = 0;          ///< switch-to-switch hops taken
  bool measured = false;           ///< generated inside the measurement window
  /// Opaque per-packet routing state threaded through SimRoutingPolicy
  /// (escape down-only bit for adaptive routing, phase for DSN custom).
  std::uint8_t route_state = 0;
  std::uint32_t retries = 0;   ///< fault requeues so far (bounded by max_retries)
  std::uint64_t retry_at = 0;  ///< earliest re-injection cycle while queued for retry
  /// Cycle from which the head flit may be routed at the switch it last
  /// entered (set on arrival; a fault purge re-times unallocated heads).
  std::uint64_t routable_at = 0;
};

/// Each packet has exactly one head flit (a one-flit packet's is its tail).
struct Flit {
  PacketSlot packet = 0;
  bool head = false;
  bool tail = false;
};

/// Immutable record of one delivered packet (optional tracing, see
/// SimConfig::record_packet_traces).
struct PacketTrace {
  std::uint64_t id = 0;
  HostId src_host = 0;
  HostId dst_host = 0;
  std::uint64_t gen_cycle = 0;
  std::uint64_t inject_cycle = 0;
  std::uint64_t eject_cycle = 0;
  std::uint32_t hops = 0;
  std::uint32_t retries = 0;  ///< fault requeues the packet survived

  friend bool operator==(const PacketTrace&, const PacketTrace&) = default;
};

}  // namespace dsn
