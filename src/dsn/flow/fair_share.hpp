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
// A solve works only on the resources its flows use, numbered in first-use
// order, and each round only on the *live* ones (crossed by at least one
// unfrozen flow). A resource -> flow index lets a round freeze just the flows
// under the resources that saturated in it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsn::flow {

/// Sentinel bottleneck for a flow the solver never froze (only possible on a
/// non-converged solve).
inline constexpr std::uint32_t kNoBottleneck = ~std::uint32_t{0};

struct FairShareResult {
  std::vector<double> rate;               ///< flits/cycle per flow
  std::vector<std::uint32_t> bottleneck;  ///< saturated resource that froze the flow
  std::uint32_t rounds = 0;               ///< water-filling rounds used
  bool converged = true;                  ///< false iff max_rounds was hit
};

/// Reusable solver workspace, one per caller (never shared between threads).
/// `local` is the only array sized to all resources: it maps a resource id to
/// its solve-local id, and every solve resets exactly the entries it set, so
/// one scratch serves any sequence of problems. The rest is sized to the
/// resources, route entries and flows of the current solve.
struct FairShareScratch {
  std::vector<std::uint32_t> local;        ///< resource -> local id (unmapped between solves)
  std::vector<std::uint32_t> global;       ///< local id -> resource, first-use order
  std::vector<std::uint32_t> route;        ///< the route pool in local ids
  std::vector<double> residual;            ///< per local resource
  std::vector<double> full;                ///< saturation threshold per local resource
  std::vector<std::uint32_t> count;        ///< unfrozen route entries per local resource
  std::vector<std::uint8_t> saturated;     ///< per local resource
  std::vector<std::uint64_t> users_begin;  ///< local resource -> its flows in `users`
  std::vector<std::uint32_t> users;        ///< flow ids per resource, in flow order
  std::vector<std::uint32_t> live;         ///< local resources an unfrozen flow crosses
  std::vector<std::uint32_t> saturating;   ///< local resources saturated this round
};

/// Solve the max-min allocation. Flow f uses resources
/// `route_pool[route_begin[f] .. route_begin[f+1])`; `capacity[c]` > 0 is the
/// capacity of resource c in flits/cycle. Every flow must cross at least one
/// resource. `max_rounds` 0 uses the natural bound (one saturated resource
/// per round, so at most the number of used resources); a positive value is
/// an explicit ceiling below which the solve may report converged=false.
FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   FairShareScratch& scratch, std::uint32_t max_rounds = 0);

/// One-shot solve with a scratch of its own.
FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   std::uint32_t max_rounds = 0);

/// Verify the max-min invariant on a solution: (a) feasibility — no resource
/// is used beyond capacity * (1 + tol); (b) bottleneck — every flow's
/// bottleneck resource is saturated (usage >= capacity * (1 - tol)) and the
/// flow holds a maximal rate there (rate >= max rate across the resource
/// - tol). Returns human-readable violations (empty = invariant holds),
/// capped at `max_violations`. Malformed input (the route checks of
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
