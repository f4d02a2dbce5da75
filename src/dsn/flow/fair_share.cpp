// dsn-slint: deterministic — see fair_share.hpp.
#include "dsn/flow/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "dsn/common/error.hpp"

namespace dsn::flow {

namespace {

/// Saturation threshold: a resource whose residual has fallen to numerical
/// noise relative to its capacity is full.
double saturation_eps(double capacity) { return 1e-9 * std::max(1.0, capacity); }

/// `FairShareScratch::local` entry of a resource the current solve has not
/// numbered (every entry, between solves).
constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

/// The input contract shared by the solver and the checker; returns the flow
/// count.
std::size_t checked_flow_count(const std::vector<double>& capacity,
                               const std::vector<std::uint32_t>& route_pool,
                               const std::vector<std::uint64_t>& route_begin) {
  DSN_REQUIRE(!route_begin.empty(), "route_begin must hold flows + 1 offsets");
  DSN_REQUIRE(route_begin.back() == route_pool.size(),
              "route_begin does not cover the route pool");
  const std::size_t flows = route_begin.size() - 1;
  for (std::size_t f = 0; f < flows; ++f) {
    DSN_REQUIRE(route_begin[f + 1] > route_begin[f],
                "every flow must cross at least one resource");
    for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i) {
      const std::uint32_t c = route_pool[i];
      DSN_REQUIRE(c < capacity.size(), "route resource index out of range");
      DSN_REQUIRE(capacity[c] > 0.0, "a used resource must have positive capacity");
    }
  }
  return flows;
}

}  // namespace

FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   FairShareScratch& s, std::uint32_t max_rounds) {
  const std::size_t flows = checked_flow_count(capacity, route_pool, route_begin);
  DSN_REQUIRE(flows < kNoBottleneck, "flow count exceeds the 32-bit flow id range");

  FairShareResult res;
  res.rate.assign(flows, 0.0);
  res.bottleneck.assign(flows, kNoBottleneck);
  if (flows == 0) return res;

  // Number the used resources in first-use order and translate the routes to
  // those local ids. Both arrays are sized first, so nothing can throw while
  // `local` holds this solve's entries; they are reset before the rounds.
  const std::uint64_t base = route_begin.front();
  const std::size_t entries = route_pool.size() - base;
  if (s.local.size() < capacity.size()) s.local.resize(capacity.size(), kUnmapped);
  s.global.clear();
  s.global.reserve(std::min(entries, capacity.size()));
  s.route.resize(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    std::uint32_t& id = s.local[route_pool[base + i]];
    if (id == kUnmapped) {
      id = static_cast<std::uint32_t>(s.global.size());
      s.global.push_back(route_pool[base + i]);
    }
    s.route[i] = id;
  }
  for (const std::uint32_t c : s.global) s.local[c] = kUnmapped;
  const std::size_t used = s.global.size();

  // Per local resource: residual capacity, saturation threshold and the
  // number of unfrozen route entries crossing it (a repeated resource counts
  // once per entry).
  s.residual.resize(used);
  s.full.resize(used);
  for (std::size_t l = 0; l < used; ++l) {
    s.residual[l] = capacity[s.global[l]];
    s.full[l] = saturation_eps(s.residual[l]);
  }
  s.count.assign(used, 0);
  for (const std::uint32_t l : s.route) ++s.count[l];
  s.saturated.assign(used, 0);

  // Resource -> flow index (CSR): each list is filled backwards from its end,
  // so the flows come out in flow order.
  s.users_begin.resize(used + 1);
  std::uint64_t end_offset = 0;
  for (std::size_t l = 0; l < used; ++l) {
    end_offset += s.count[l];
    s.users_begin[l] = end_offset;
  }
  s.users_begin[used] = entries;
  s.users.resize(entries);
  for (std::size_t f = flows; f-- > 0;) {
    for (std::uint64_t i = route_begin[f + 1] - base; i-- > route_begin[f] - base;)
      s.users[--s.users_begin[s.route[i]]] = static_cast<std::uint32_t>(f);
  }

  // Every resource starts live; the first increment is the tightest share.
  s.live.resize(used);
  std::iota(s.live.begin(), s.live.end(), 0u);
  double share = std::numeric_limits<double>::infinity();
  for (const std::uint32_t l : s.live) share = std::min(share, s.residual[l] / s.count[l]);

  // Every round saturates at least one resource, so the loop needs at most
  // |used resources| rounds; max_rounds 0 means exactly that natural bound.
  const std::uint32_t round_limit =
      max_rounds != 0
          ? max_rounds
          : static_cast<std::uint32_t>(std::min<std::size_t>(used, ~std::uint32_t{0}));
  // The water level: the shares summed in round order. A flow frozen in round
  // r holds the level after round r, the same additions a per-flow running
  // sum would make, so the rates are bitwise those of the textbook loop.
  double level = 0.0;
  std::size_t unfrozen = flows;
  while (unfrozen > 0 && res.rounds < round_limit) {
    ++res.rounds;
    if (!std::isfinite(share)) break;  // every live resource is uncapacitated
    level += share;

    s.saturating.clear();
    for (const std::uint32_t l : s.live) {
      s.residual[l] -= share * s.count[l];
      if (s.residual[l] <= s.full[l]) {
        s.saturated[l] = 1;
        s.saturating.push_back(l);
      }
    }

    // Freeze the unfrozen flows under each saturated resource; their counts
    // leave the sharing pool so the survivors split the remaining headroom.
    // Every flag is set before any flow freezes, so a flow's bottleneck (the
    // first saturated resource on its route) does not depend on which
    // resource's list reached it first.
    for (const std::uint32_t l : s.saturating) {
      for (std::uint64_t k = s.users_begin[l]; k < s.users_begin[l + 1]; ++k) {
        const std::uint32_t f = s.users[k];
        if (res.bottleneck[f] != kNoBottleneck) continue;  // frozen already
        const std::uint64_t begin = route_begin[f] - base;
        const std::uint64_t end = route_begin[f + 1] - base;
        std::uint64_t i = begin;
        while (s.saturated[s.route[i]] == 0) ++i;
        res.bottleneck[f] = s.global[s.route[i]];
        res.rate[f] = level;
        for (i = begin; i < end; ++i) --s.count[s.route[i]];
        --unfrozen;
      }
    }

    // Drop the resources no unfrozen flow crosses any more; the tightest
    // residual share among the rest is the next round's increment.
    share = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::uint32_t l : s.live) {
      if (s.count[l] == 0) continue;
      s.live[kept++] = l;
      share = std::min(share, s.residual[l] / s.count[l]);
    }
    s.live.resize(kept);
  }
  if (unfrozen > 0) {
    for (std::size_t f = 0; f < flows; ++f) {
      if (res.bottleneck[f] == kNoBottleneck) res.rate[f] = level;
    }
  }
  res.converged = unfrozen == 0;
  return res;
}

FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   std::uint32_t max_rounds) {
  FairShareScratch scratch;
  return max_min_fair_rates(capacity, route_pool, route_begin, scratch, max_rounds);
}

std::vector<std::string> check_max_min(const std::vector<double>& capacity,
                                       const std::vector<std::uint32_t>& route_pool,
                                       const std::vector<std::uint64_t>& route_begin,
                                       const FairShareResult& result, double tol,
                                       std::size_t max_violations) {
  const std::size_t flows = checked_flow_count(capacity, route_pool, route_begin);
  DSN_REQUIRE(result.rate.size() == flows && result.bottleneck.size() == flows,
              "the result must hold one rate and one bottleneck per flow");
  const std::size_t caps = capacity.size();
  std::vector<std::string> violations;
  const auto report = [&](std::string msg) {
    if (violations.size() < max_violations) violations.push_back(std::move(msg));
  };

  // Serial index-order accumulation: usage and per-resource rate maxima.
  std::vector<double> usage(caps, 0.0);
  std::vector<double> max_rate(caps, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i) {
      usage[route_pool[i]] += result.rate[f];
      max_rate[route_pool[i]] = std::max(max_rate[route_pool[i]], result.rate[f]);
    }
  }

  for (std::size_t c = 0; c < caps; ++c) {
    if (usage[c] > capacity[c] * (1.0 + tol)) {
      report("resource " + std::to_string(c) + " over capacity: usage " +
             std::to_string(usage[c]) + " > " + std::to_string(capacity[c]));
    }
  }
  for (std::size_t f = 0; f < flows; ++f) {
    const std::uint32_t c = result.bottleneck[f];
    if (c == kNoBottleneck) {
      if (result.converged)
        report("flow " + std::to_string(f) + " has no bottleneck on a converged solve");
      continue;
    }
    DSN_REQUIRE(c < caps, "bottleneck id is neither a resource nor kNoBottleneck");
    const double slack = capacity[c] * tol + tol;
    if (usage[c] < capacity[c] - slack) {
      report("flow " + std::to_string(f) + " bottleneck " + std::to_string(c) +
             " is not saturated: usage " + std::to_string(usage[c]) + " < capacity " +
             std::to_string(capacity[c]));
    }
    if (result.rate[f] + slack < max_rate[c]) {
      report("flow " + std::to_string(f) + " rate " + std::to_string(result.rate[f]) +
             " is not maximal at its bottleneck " + std::to_string(c) + " (max " +
             std::to_string(max_rate[c]) + ")");
    }
  }
  return violations;
}

}  // namespace dsn::flow
