// dsn-slint: deterministic — flow rates feed byte-identical replay gates;
// the solver is serial, and every reduction here is a min, an integer add, or
// one fixed-order sum, so the solution is bitwise reproducible.
//
// Max-min fair-share allocation by progressive water-filling. Given resource
// capacities (directed link halves plus host injection/ejection ports) and
// one resource list per flow, all unfrozen flows grow at the same rate until
// some resource saturates; flows crossing a saturated resource freeze at the
// current level and the rest keep growing. The result is the unique max-min
// fair allocation: every flow is bottlenecked at a saturated resource where
// it holds a maximal rate.
//
// A FairShareProblem holds the open flows between solves. A flow's route is
// checked and translated to local resource ids once, when it opens, and
// threaded into one user list per resource; a solve resets only the
// resources open flows cross and runs the rounds, each only on the *live*
// resources (crossed by at least one unfrozen flow), freezing just the flows
// listed under the resources that saturated in it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsn::flow {

/// Bottleneck of a flow no solve froze; check_max_min reports it.
inline constexpr std::uint32_t kNoBottleneck = ~std::uint32_t{0};

struct FairShareResult {
  std::vector<double> rate;               ///< flits/cycle per flow
  std::vector<std::uint32_t> bottleneck;  ///< saturated resource that froze the flow
  std::uint32_t rounds = 0;               ///< water-filling rounds used
};

/// The max-min problem of a changing set of flows, one per caller (never
/// shared between threads). Every solve converges: the resource that sets a
/// round's share saturates in it and every flow crossing it freezes, so the
/// rounds never outnumber the resources the open flows cross.
class FairShareProblem {
 public:
  FairShareProblem() = default;
  /// `capacity[c]` is the capacity of resource c in flits/cycle; only the
  /// resources an open route crosses need a positive finite one.
  explicit FairShareProblem(std::vector<double> capacity);

  const std::vector<double>& capacity() const { return capacity_; }

  /// Open a flow over `route`, at least one resource id (a repeated
  /// resource counts once per entry), and return its flow id; a closed
  /// flow's id may be handed out again. A refused route changes nothing.
  std::uint32_t open(std::span<const std::uint32_t> route);
  /// Close open flow `id`.
  void close(std::uint32_t id);

  /// Solve the max-min allocation of the open flows; returns the rounds.
  std::uint32_t solve();
  /// Open flow `id`'s rate in flits/cycle and the saturated resource that
  /// froze it, as of the last solve.
  double rate(std::uint32_t id) const { return flows_[id].rate; }
  std::uint32_t bottleneck(std::uint32_t id) const { return flows_[id].bottleneck; }
  /// Append open flow `id`'s resource ids to `out`, in route order: the
  /// route it was opened with.
  void append_route(std::uint32_t id, std::vector<std::uint32_t>& out) const;

 private:
  /// A resource some open route crosses, under its local id.
  struct Resource {
    std::uint32_t id;    ///< the resource's own id
    std::uint32_t open;  ///< open route entries crossing it; 0 = local id free
    std::uint32_t head;  ///< first entry of its user list
  };
  /// One route entry of an open flow, linked into its resource's user list.
  struct Entry {
    std::uint32_t resource;  ///< local id
    std::uint32_t flow;
    std::uint32_t prev, next;
  };
  /// A flow id's route entries are entries_[begin, begin + length); a
  /// closed id keeps them for the next route of the same length.
  struct Flow {
    std::uint32_t begin;
    std::uint32_t length;
    std::uint32_t bottleneck;
    double rate;
  };

  std::vector<double> capacity_;
  std::vector<std::uint32_t> local_;  ///< resource -> local id, or none
  std::vector<Resource> resources_;   ///< by local id
  // The round loop's state, by local id: saturation threshold, headroom,
  // unfrozen route entries crossing the resource, saturated flag.
  std::vector<double> full_, residual_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint32_t> free_local_;
  std::vector<Entry> entries_;
  std::vector<Flow> flows_;  ///< by flow id
  std::vector<std::vector<std::uint32_t>> free_flows_;  ///< closed ids by route length
  std::uint32_t open_flows_ = 0;
  std::vector<std::uint32_t> live_;        ///< local ids an unfrozen flow crosses
  std::vector<std::uint32_t> saturating_;  ///< local ids saturated this round
};

/// One-shot solve of the max-min allocation. Flow f uses resources
/// `route_pool[route_begin[f] .. route_begin[f+1])`; `capacity[c]` is the
/// capacity of resource c in flits/cycle, positive and finite wherever a
/// route crosses it. Every flow must cross at least one resource.
FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin);

/// Verify the max-min invariant on a solution: (a) feasibility — no resource
/// is used beyond capacity * (1 + tol); (b) bottleneck — every flow has a
/// bottleneck resource, saturated there (usage >= capacity * (1 - tol)) and
/// holding a maximal rate (rate >= max rate across the resource - tol).
/// Returns human-readable violations (empty = invariant holds), capped at
/// `max_violations`. Malformed input (the route checks of
/// max_min_fair_rates, a result shorter than the flow count, a bottleneck id
/// that is neither a resource nor kNoBottleneck) throws PreconditionError.
/// Used by the property tests and dsn-lint flow.
std::vector<std::string> check_max_min(const std::vector<double>& capacity,
                                       const std::vector<std::uint32_t>& route_pool,
                                       const std::vector<std::uint64_t>& route_begin,
                                       const FairShareResult& result,
                                       double tol = 1e-6,
                                       std::size_t max_violations = 8);

}  // namespace dsn::flow
