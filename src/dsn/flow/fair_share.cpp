// dsn-slint: deterministic — see fair_share.hpp.
#include "dsn/flow/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "dsn/common/error.hpp"

namespace dsn::flow {

namespace {

/// Saturation threshold: a resource whose residual has fallen to numerical
/// noise relative to its capacity is full.
double saturation_eps(double capacity) { return 1e-9 * std::max(1.0, capacity); }

/// An unmapped resource, an unlinked entry.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// The route contract of FairShareProblem::open and check_max_min.
void check_route(const std::vector<double>& capacity, std::span<const std::uint32_t> route) {
  DSN_REQUIRE(!route.empty(), "every flow must cross at least one resource");
  for (const std::uint32_t c : route) {
    DSN_REQUIRE(c < capacity.size(), "route resource index out of range");
    DSN_REQUIRE(capacity[c] > 0.0 && std::isfinite(capacity[c]),
                "a used resource must have positive finite capacity");
  }
}

/// Flow f's route in a pool; its offsets must have passed flow_count.
std::span<const std::uint32_t> route_of(const std::vector<std::uint32_t>& route_pool,
                                        const std::vector<std::uint64_t>& route_begin,
                                        std::size_t f) {
  return {route_pool.data() + route_begin[f], route_begin[f + 1] - route_begin[f]};
}

/// The offsets contract of the one-shot solver and the checker; returns the
/// flow count.
std::size_t flow_count(const std::vector<std::uint32_t>& route_pool,
                       const std::vector<std::uint64_t>& route_begin) {
  DSN_REQUIRE(!route_begin.empty(), "route_begin must hold flows + 1 offsets");
  DSN_REQUIRE(route_begin.back() == route_pool.size(),
              "route_begin does not cover the route pool");
  const std::size_t flows = route_begin.size() - 1;
  for (std::size_t f = 0; f < flows; ++f) {
    DSN_REQUIRE(route_begin[f + 1] > route_begin[f],
                "every flow must cross at least one resource");
  }
  return flows;
}

}  // namespace

FairShareProblem::FairShareProblem(std::vector<double> capacity)
    : capacity_(std::move(capacity)), local_(capacity_.size(), kNone) {}

std::uint32_t FairShareProblem::open(std::span<const std::uint32_t> route) {
  check_route(capacity_, route);
  const std::size_t length = route.size();
  if (free_flows_.size() <= length) free_flows_.resize(length + 1);
  std::uint32_t f = 0;
  if (!free_flows_[length].empty()) {
    f = free_flows_[length].back();
    free_flows_[length].pop_back();
  } else {
    DSN_REQUIRE(flows_.size() < kNone && entries_.size() + length < kNone,
                "open flows exceed the 32-bit flow and route entry ids");
    f = static_cast<std::uint32_t>(flows_.size());
    flows_.push_back({static_cast<std::uint32_t>(entries_.size()),
                      static_cast<std::uint32_t>(length), kNoBottleneck, 0.0});
    entries_.resize(entries_.size() + length);
  }

  // Number resources no open route crosses yet, and push each entry onto
  // its resource's user list.
  const std::uint32_t begin = flows_[f].begin;
  for (std::uint32_t k = 0; k < length; ++k) {
    std::uint32_t& l = local_[route[k]];
    if (l == kNone) {
      if (free_local_.empty()) {
        l = static_cast<std::uint32_t>(resources_.size());
        resources_.emplace_back();
        full_.push_back(0.0);
        residual_.push_back(0.0);
        count_.push_back(0);
        saturated_.push_back(0);
      } else {
        l = free_local_.back();
        free_local_.pop_back();
      }
      resources_[l] = {route[k], 0, kNone};
    }
    Resource& r = resources_[l];
    entries_[begin + k] = {l, f, kNone, r.head};
    if (r.head != kNone) entries_[r.head].prev = begin + k;
    r.head = begin + k;
    ++r.open;
  }
  ++open_flows_;
  return f;
}

void FairShareProblem::close(std::uint32_t f) {
  const Flow& flow = flows_[f];
  for (std::uint32_t e = flow.begin; e < flow.begin + flow.length; ++e) {
    const Entry& entry = entries_[e];
    Resource& r = resources_[entry.resource];
    if (entry.prev != kNone)
      entries_[entry.prev].next = entry.next;
    else
      r.head = entry.next;
    if (entry.next != kNone) entries_[entry.next].prev = entry.prev;
    if (--r.open == 0) {
      local_[r.id] = kNone;
      free_local_.push_back(entry.resource);
    }
  }
  free_flows_[flow.length].push_back(f);
  --open_flows_;
}

std::uint32_t FairShareProblem::solve() {
  // Every resource an open flow crosses starts live at full capacity; the
  // first increment is the tightest share.
  live_.clear();
  double share = std::numeric_limits<double>::infinity();
  for (std::uint32_t l = 0; l < resources_.size(); ++l) {
    const Resource& r = resources_[l];
    if (r.open == 0) continue;
    residual_[l] = capacity_[r.id];
    full_[l] = saturation_eps(residual_[l]);
    count_[l] = r.open;
    saturated_[l] = 0;
    live_.push_back(l);
    share = std::min(share, residual_[l] / count_[l]);
  }
  for (Flow& flow : flows_) flow.bottleneck = kNoBottleneck;

  // The water level: the shares summed in round order. A flow frozen in round
  // r holds the level after round r, the same additions a per-flow running
  // sum would make, so the rates are bitwise those of the textbook loop.
  double level = 0.0;
  std::uint32_t rounds = 0;
  std::uint32_t unfrozen = open_flows_;
  while (unfrozen > 0) {
    ++rounds;
    level += share;

    // The resource that set the share ends within a few ulps of 0, below
    // its threshold, so every round saturates at least one live resource.
    saturating_.clear();
    for (const std::uint32_t l : live_) {
      residual_[l] -= share * count_[l];
      if (residual_[l] <= full_[l]) {
        saturated_[l] = 1;
        saturating_.push_back(l);
      }
    }
    DSN_ASSERT(!saturating_.empty(), "a water-filling round saturated no resource");

    // Freeze the unfrozen flows under each saturated resource; their counts
    // leave the sharing pool so the survivors split the remaining headroom.
    // Every flag is set before any flow freezes, so a flow's bottleneck (the
    // first saturated resource on its route) does not depend on which
    // resource's list reached it first.
    for (const std::uint32_t l : saturating_) {
      for (std::uint32_t e = resources_[l].head; e != kNone; e = entries_[e].next) {
        Flow& flow = flows_[entries_[e].flow];
        if (flow.bottleneck != kNoBottleneck) continue;  // frozen already
        const Entry* route = entries_.data() + flow.begin;
        std::uint32_t i = 0;
        while (saturated_[route[i].resource] == 0) ++i;
        flow.bottleneck = resources_[route[i].resource].id;
        flow.rate = level;
        for (i = 0; i < flow.length; ++i) --count_[route[i].resource];
        --unfrozen;
      }
    }

    // Drop the resources no unfrozen flow crosses any more; the tightest
    // residual share among the rest is the next round's increment.
    share = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::uint32_t l : live_) {
      if (count_[l] == 0) continue;
      live_[kept++] = l;
      share = std::min(share, residual_[l] / count_[l]);
    }
    live_.resize(kept);
  }
  return rounds;
}

void FairShareProblem::append_route(std::uint32_t f, std::vector<std::uint32_t>& out) const {
  const Flow& flow = flows_[f];
  for (std::uint32_t e = flow.begin; e < flow.begin + flow.length; ++e)
    out.push_back(resources_[entries_[e].resource].id);
}

FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin) {
  const std::size_t flows = flow_count(route_pool, route_begin);
  FairShareProblem problem(capacity);
  std::vector<std::uint32_t> id(flows);
  for (std::size_t f = 0; f < flows; ++f)
    id[f] = problem.open(route_of(route_pool, route_begin, f));
  FairShareResult res;
  res.rounds = problem.solve();
  res.rate.resize(flows);
  res.bottleneck.resize(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    res.rate[f] = problem.rate(id[f]);
    res.bottleneck[f] = problem.bottleneck(id[f]);
  }
  return res;
}

std::vector<std::string> check_max_min(const std::vector<double>& capacity,
                                       const std::vector<std::uint32_t>& route_pool,
                                       const std::vector<std::uint64_t>& route_begin,
                                       const FairShareResult& result, double tol,
                                       std::size_t max_violations) {
  const std::size_t flows = flow_count(route_pool, route_begin);
  for (std::size_t f = 0; f < flows; ++f)
    check_route(capacity, route_of(route_pool, route_begin, f));
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
      report("flow " + std::to_string(f) + " has no bottleneck");
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
