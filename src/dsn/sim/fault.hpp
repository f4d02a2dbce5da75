// Live fault injection for the flit simulator: a deterministic schedule of
// link down/up and switch halt/revive events applied inside the Simulator's
// event loop, plus the per-event and per-epoch observability records that
// SimResult exposes for degraded-mode analysis.
//
// Determinism contract: a FaultSchedule is a plain sorted event list and the
// Bernoulli flap generator draws from the seeded dsn::Rng, so the same
// (schedule, SimConfig::seed) pair always produces the same simulation —
// byte-identical SimResult — regardless of how many worker threads rebuild
// the routing tables during recovery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/common/types.hpp"

namespace dsn {

struct Topology;

enum class FaultKind : std::uint8_t { kLinkDown, kLinkUp, kSwitchDown, kSwitchUp };

/// Stable text name ("link-down", "switch-up", ...), used by the schedule
/// text format and the JSON reports.
const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  std::uint64_t cycle = 0;
  FaultKind kind = FaultKind::kLinkDown;
  std::uint32_t id = 0;  ///< LinkId for link events, NodeId for switch events

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Builder for a deterministic fault timeline. Events are kept sorted by
/// cycle (same-cycle events preserve insertion order), so the simulator can
/// consume them with a single cursor. Redundant events (downing a dead link,
/// reviving a live switch) are legal and ignored at apply time.
class FaultSchedule {
 public:
  FaultSchedule& link_down(std::uint64_t cycle, LinkId link);
  FaultSchedule& link_up(std::uint64_t cycle, LinkId link);
  FaultSchedule& switch_down(std::uint64_t cycle, NodeId node);
  FaultSchedule& switch_up(std::uint64_t cycle, NodeId node);
  FaultSchedule& add(FaultEvent ev);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  std::span<const FaultEvent> events() const { return events_; }

  /// Throws unless every event id is a valid link/switch of the topology.
  void validate(const Topology& topo) const;

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;

 private:
  std::vector<FaultEvent> events_;  ///< sorted by cycle, stable
};

/// The link a fault drill downs: the first whose endpoints are not ring
/// neighbours (|u - v| is neither 1 nor n - 1), else link 0.
LinkId drill_victim_link(const Topology& topo);

/// Seeded Bernoulli link-flap model: every `check_interval` cycles each live
/// candidate link goes down with probability `down_prob` and comes back
/// `repair_cycles` later (repairs past `horizon` are still scheduled so no
/// link stays down forever by accident). With an empty `candidates` span all
/// links of the topology flap. Same arguments => same schedule.
FaultSchedule make_link_flap_schedule(const Topology& topo, double down_prob,
                                      std::uint64_t check_interval,
                                      std::uint64_t repair_cycles, std::uint64_t horizon,
                                      std::uint64_t seed,
                                      std::span<const LinkId> candidates = {});

/// Outcome of one applied fault event (SimResult::fault_log entry).
struct FaultRecord {
  FaultEvent event;
  std::uint64_t flits_dropped = 0;     ///< flits purged from buffers and wires
  std::uint64_t packets_dropped = 0;   ///< damaged packets that exhausted retries
  std::uint64_t packets_requeued = 0;  ///< damaged packets requeued at their NIC
  bool rebuilt_routing = false;
  bool reconnected = false;  ///< some packet was delivered after this event
  std::uint64_t reconnect_cycles = 0;  ///< event -> first subsequent delivery

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// One bucket of the degradation curve (SimResult::epochs entry; bucket
/// width is SimConfig::epoch_cycles).
struct EpochStats {
  std::uint64_t start_cycle = 0;
  std::uint64_t injected = 0;   ///< packets generated in the epoch (all phases)
  std::uint64_t delivered = 0;  ///< tails ejected in the epoch
  std::uint64_t dropped = 0;    ///< drops accounted in the epoch (fault + TTL)
  std::uint64_t retried = 0;    ///< requeue events in the epoch

  friend bool operator==(const EpochStats&, const EpochStats&) = default;
};

}  // namespace dsn
