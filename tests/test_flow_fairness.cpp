// Property tests for the flow tier's max-min fair-share solver: on fuzzed
// abstract problems and on real topologies, every allocation must satisfy
// the max-min invariant (feasible, every flow bottlenecked at a saturated
// resource where it holds a maximal rate), the solution must be invariant
// under flow-id permutation, it must equal the textbook serial
// water-filling bit for bit, and a problem kept across opens and closes must
// solve as a fresh one-shot does and hand back each open route as opened.
// All randomness is seeded.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/flow/fair_share.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/workload.hpp"

namespace dsn::flow {
namespace {

struct Problem {
  std::vector<double> capacity;
  std::vector<std::uint32_t> pool;
  std::vector<std::uint64_t> begin;
};

/// Fuzz a fair-share problem: `resources` capacities drawn from a few
/// magnitudes, `flows` routes of 1..5 distinct resources each.
Problem fuzz_problem(std::uint32_t resources, std::uint32_t flows, Rng& rng) {
  Problem p;
  p.capacity.resize(resources);
  for (double& c : p.capacity) c = 0.25 * static_cast<double>(1 + rng.next_below(16));
  p.begin.push_back(0);
  std::vector<std::uint32_t> route;
  for (std::uint32_t f = 0; f < flows; ++f) {
    route.clear();
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min(5u, resources)));
    while (route.size() < len) {
      const std::uint32_t c = rng.next_below(resources);
      if (std::find(route.begin(), route.end(), c) == route.end()) route.push_back(c);
    }
    p.pool.insert(p.pool.end(), route.begin(), route.end());
    p.begin.push_back(p.pool.size());
  }
  return p;
}

TEST(FlowFairness, FuzzedProblemsSatisfyMaxMinInvariant) {
  Rng rng(0xF10F109);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t resources = 2 + rng.next_below(40);
    const std::uint32_t flows = 1 + rng.next_below(120);
    const Problem p = fuzz_problem(resources, flows, rng);
    const FairShareResult r = max_min_fair_rates(p.capacity, p.pool, p.begin);
    ASSERT_LE(r.rounds, resources) << "trial " << trial;
    const std::vector<std::string> violations =
        check_max_min(p.capacity, p.pool, p.begin, r);
    EXPECT_TRUE(violations.empty())
        << "trial " << trial << ": " << violations.front();
    for (std::uint32_t f = 0; f < flows; ++f) {
      EXPECT_NE(r.bottleneck[f], kNoBottleneck) << "trial " << trial << " flow " << f;
      EXPECT_GT(r.rate[f], 0.0) << "trial " << trial << " flow " << f;
    }
  }
}

TEST(FlowFairness, RatesInvariantUnderFlowPermutation) {
  Rng rng(0xBADC0DE);
  for (int trial = 0; trial < 50; ++trial) {
    const Problem p = fuzz_problem(2 + rng.next_below(20), 2 + rng.next_below(60), rng);
    const std::size_t flows = p.begin.size() - 1;

    std::vector<std::uint32_t> perm(flows);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = flows - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.next_below(static_cast<std::uint32_t>(i + 1))]);

    Problem q;
    q.capacity = p.capacity;
    q.begin.push_back(0);
    for (const std::uint32_t f : perm) {
      q.pool.insert(q.pool.end(), p.pool.begin() + p.begin[f],
                    p.pool.begin() + p.begin[f + 1]);
      q.begin.push_back(q.pool.size());
    }

    const FairShareResult a = max_min_fair_rates(p.capacity, p.pool, p.begin);
    const FairShareResult b = max_min_fair_rates(q.capacity, q.pool, q.begin);
    for (std::size_t i = 0; i < flows; ++i)
      EXPECT_EQ(a.rate[perm[i]], b.rate[i]) << "trial " << trial << " pos " << i;
  }
}

/// The textbook serial water-filling, kept as the solver's oracle: each
/// round takes the tightest share over every resource an unfrozen flow
/// crosses, adds it to every unfrozen flow, charges every such resource, then
/// scans every unfrozen flow's route for a saturated resource.
FairShareResult reference_rates(const Problem& p) {
  const std::size_t flows = p.begin.size() - 1;
  FairShareResult res;
  res.rate.assign(flows, 0.0);
  res.bottleneck.assign(flows, kNoBottleneck);
  std::vector<double> residual = p.capacity;
  std::vector<std::uint32_t> count(p.capacity.size(), 0);
  std::vector<std::uint8_t> saturated(p.capacity.size(), 0);
  std::vector<std::uint8_t> frozen(flows, 0);
  for (std::uint64_t i = p.begin.front(); i < p.begin.back(); ++i) ++count[p.pool[i]];

  std::size_t unfrozen = flows;
  while (unfrozen > 0) {
    ++res.rounds;
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < count.size(); ++c) {
      if (count[c] > 0) share = std::min(share, residual[c] / count[c]);
    }
    for (std::size_t f = 0; f < flows; ++f) {
      if (frozen[f] == 0) res.rate[f] += share;
    }
    for (std::size_t c = 0; c < count.size(); ++c) {
      if (count[c] == 0) continue;
      residual[c] -= share * count[c];
      if (residual[c] <= 1e-9 * std::max(1.0, p.capacity[c])) saturated[c] = 1;
    }
    for (std::size_t f = 0; f < flows; ++f) {
      if (frozen[f] != 0) continue;
      for (std::uint64_t i = p.begin[f]; i < p.begin[f + 1]; ++i) {
        if (saturated[p.pool[i]] == 0) continue;
        frozen[f] = 1;
        res.bottleneck[f] = p.pool[i];
        --unfrozen;
        for (std::uint64_t j = p.begin[f]; j < p.begin[f + 1]; ++j) --count[p.pool[j]];
        break;
      }
    }
  }
  return res;
}

/// Fuzz a problem in shapes the solver accepts but the simulator never
/// builds: routes of 1..8 entries that may repeat a resource, capacities over
/// 1e-3..15 (every other problem from a few exact values, so resources tie
/// and saturate together), and sometimes unused route-pool entries before
/// the first flow.
Problem fuzz_raw_problem(std::uint32_t resources, std::uint32_t flows, Rng& rng) {
  Problem p;
  p.capacity.resize(resources);
  const bool ties = rng.next_below(2) == 0;
  for (double& c : p.capacity) {
    c = ties ? 0.125 * static_cast<double>(1 + rng.next_below(120))
             : 1e-3 * std::pow(15e3, rng.next_double());
  }
  const std::uint64_t prefix = rng.next_below(8) == 0 ? 1 + rng.next_below(5) : 0;
  for (std::uint64_t i = 0; i < prefix; ++i)
    p.pool.push_back(static_cast<std::uint32_t>(rng.next_below(resources)));
  p.begin.push_back(p.pool.size());
  for (std::uint32_t f = 0; f < flows; ++f) {
    const std::uint64_t len = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < len; ++i)
      p.pool.push_back(static_cast<std::uint32_t>(rng.next_below(resources)));
    p.begin.push_back(p.pool.size());
  }
  return p;
}

TEST(FlowFairness, SolverMatchesSerialReferenceBitwise) {
  Rng rng(0x5E41A1);
  for (int trial = 0; trial < 2500; ++trial) {
    const Problem p = fuzz_raw_problem(1 + static_cast<std::uint32_t>(rng.next_below(60)),
                                       1 + static_cast<std::uint32_t>(rng.next_below(200)),
                                       rng);
    const FairShareResult want = reference_rates(p);
    const FairShareResult got = max_min_fair_rates(p.capacity, p.pool, p.begin);
    ASSERT_EQ(got.rounds, want.rounds) << "trial " << trial;
    ASSERT_EQ(got.rate.size(), want.rate.size()) << "trial " << trial;
    for (std::size_t f = 0; f < want.rate.size(); ++f) {
      // Bitwise, not approximate: determinism gates replay these bytes.
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rate[f]),
                std::bit_cast<std::uint64_t>(want.rate[f]))
          << "trial " << trial << " flow " << f << ": " << got.rate[f] << " vs "
          << want.rate[f];
      ASSERT_EQ(got.bottleneck[f], want.bottleneck[f]) << "trial " << trial << " flow " << f;
    }
  }
}

TEST(FlowFairness, KeptProblemMatchesOneShotBitwise) {
  // One problem across a long sequence of opens and closes, as the flow
  // simulator keeps it across epochs: after every step its solve must equal
  // a fresh one-shot solve of the open flows, bit for bit. Closes free local
  // resource ids and flow ids for reuse, and routes may repeat a resource.
  Rng rng(0xC105ED);
  for (int trial = 0; trial < 40; ++trial) {
    const auto resources = 1 + static_cast<std::uint32_t>(rng.next_below(50));
    const Problem pool = fuzz_raw_problem(resources, 300, rng);
    FairShareProblem kept(pool.capacity);
    std::vector<std::pair<std::size_t, std::uint32_t>> open;  // (pool flow, id)
    std::size_t next = 0;
    for (int step = 0; step < 60; ++step) {
      // Open up to 8 flows, then close a random third of the open ones.
      for (std::uint64_t k = rng.next_below(9); k > 0 && next + 1 < pool.begin.size(); --k) {
        const std::span<const std::uint32_t> route(
            pool.pool.data() + pool.begin[next], pool.begin[next + 1] - pool.begin[next]);
        open.emplace_back(next, kept.open(route));
        ++next;
      }
      for (std::size_t i = 0; i < open.size();) {
        if (rng.next_below(3) == 0) {
          kept.close(open[i].second);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }

      Problem now{pool.capacity, {}, {0}};
      for (const auto& [f, id] : open) {
        now.pool.insert(now.pool.end(), pool.pool.begin() + pool.begin[f],
                        pool.pool.begin() + pool.begin[f + 1]);
        now.begin.push_back(now.pool.size());
      }
      const FairShareResult want = max_min_fair_rates(now.capacity, now.pool, now.begin);
      ASSERT_EQ(kept.solve(), want.rounds) << "trial " << trial << " step " << step;
      for (std::size_t i = 0; i < open.size(); ++i) {
        const std::uint32_t id = open[i].second;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(kept.rate(id)),
                  std::bit_cast<std::uint64_t>(want.rate[i]))
            << "trial " << trial << " step " << step << " flow " << i;
        ASSERT_EQ(kept.bottleneck(id), want.bottleneck[i])
            << "trial " << trial << " step " << step << " flow " << i;
      }
    }
  }
}

TEST(FlowFairness, MalformedInputThrows) {
  const std::vector<double> capacity = {1.0, 2.0};
  const std::vector<std::uint32_t> pool = {0, 1, 1};
  const std::vector<std::uint64_t> begin = {0, 2, 3};
  const FairShareResult good = max_min_fair_rates(capacity, pool, begin);
  ASSERT_TRUE(check_max_min(capacity, pool, begin, good).empty());

  // Inputs both functions reject.
  const std::vector<Problem> bad_routes = {
      {capacity, pool, {}},                // no offsets at all
      {capacity, pool, {0, 2}},            // offsets stop short of the pool
      {capacity, pool, {0, 0, 3}},         // a flow with an empty route
      {capacity, {0, 2, 1}, begin},        // resource id past the capacities
      {{1.0, 0.0}, pool, begin},           // a used resource without capacity
      {{1.0, std::numeric_limits<double>::infinity()}, pool, begin},  // nor a finite one
  };
  for (std::size_t k = 0; k < bad_routes.size(); ++k) {
    const Problem& r = bad_routes[k];
    FairShareResult sized;
    sized.rate.assign(r.begin.empty() ? 0 : r.begin.size() - 1, 0.5);
    sized.bottleneck.assign(sized.rate.size(), 0);
    EXPECT_THROW(max_min_fair_rates(r.capacity, r.pool, r.begin), PreconditionError)
        << "case " << k;
    EXPECT_THROW(check_max_min(r.capacity, r.pool, r.begin, sized), PreconditionError)
        << "case " << k;
  }

  // Results that do not fit the problem.
  FairShareResult short_rate = good;
  short_rate.rate.pop_back();
  EXPECT_THROW(check_max_min(capacity, pool, begin, short_rate), PreconditionError);
  FairShareResult short_bottleneck = good;
  short_bottleneck.bottleneck.pop_back();
  EXPECT_THROW(check_max_min(capacity, pool, begin, short_bottleneck), PreconditionError);
  FairShareResult stray_bottleneck = good;
  stray_bottleneck.bottleneck[1] = 2;  // neither a resource nor kNoBottleneck
  EXPECT_THROW(check_max_min(capacity, pool, begin, stray_bottleneck), PreconditionError);

  // A refused route leaves a kept problem as it was.
  FairShareProblem kept({1.0, 2.0, 0.0});
  const std::uint32_t a = kept.open(std::span(pool).first(2));
  const std::vector<std::uint32_t> zero_capacity = {1, 2};
  const std::vector<std::uint32_t> past_end = {1, 3};
  EXPECT_THROW(kept.open(zero_capacity), PreconditionError);
  EXPECT_THROW(kept.open(past_end), PreconditionError);
  EXPECT_THROW(kept.open({}), PreconditionError);
  const std::uint32_t b = kept.open(std::span(pool).last(1));
  EXPECT_EQ(kept.solve(), good.rounds);
  EXPECT_EQ(kept.rate(a), good.rate[0]);
  EXPECT_EQ(kept.rate(b), good.rate[1]);
  EXPECT_EQ(kept.bottleneck(a), good.bottleneck[0]);
  EXPECT_EQ(kept.bottleneck(b), good.bottleneck[1]);
}

TEST(FlowFairness, OpenRoutesReadBackInRouteOrder) {
  // append_route returns what open was given, repeats included, whatever
  // local ids the resources took; a closed id reopened for a route of the
  // same length reads back the new route.
  FairShareProblem kept(std::vector<double>(8, 1.0));
  const auto route_of = [&](std::uint32_t id) {
    std::vector<std::uint32_t> out;
    kept.append_route(id, out);
    return out;
  };
  const std::vector<std::uint32_t> ra = {5, 2, 7}, rb = {2, 2, 0}, rc = {6};
  const std::uint32_t a = kept.open(ra);
  const std::uint32_t b = kept.open(rb);
  const std::uint32_t c = kept.open(rc);
  EXPECT_EQ(route_of(a), ra);
  EXPECT_EQ(route_of(b), rb);
  EXPECT_EQ(route_of(c), rc);

  // Closing a frees the local ids of resources 5 and 7 (b still crosses 2);
  // the reopened id hands them to resources 3 and 7.
  kept.close(a);
  EXPECT_EQ(route_of(b), rb);
  EXPECT_EQ(route_of(c), rc);
  const std::vector<std::uint32_t> rd = {3, 7, 5};
  const std::uint32_t d = kept.open(rd);
  EXPECT_EQ(d, a);
  EXPECT_EQ(route_of(d), rd);
  EXPECT_EQ(route_of(b), rb);

  // Appending keeps what `out` held.
  std::vector<std::uint32_t> both;
  kept.append_route(c, both);
  kept.append_route(d, both);
  EXPECT_EQ(both, (std::vector<std::uint32_t>{6, 3, 7, 5}));
}

TEST(FlowFairness, SingleLinkSharedEqually) {
  // Three flows over one unit resource: each gets exactly 1/3.
  const std::vector<double> capacity = {1.0};
  const std::vector<std::uint32_t> pool = {0, 0, 0};
  const std::vector<std::uint64_t> begin = {0, 1, 2, 3};
  const FairShareResult r = max_min_fair_rates(capacity, pool, begin);
  for (const double rate : r.rate) EXPECT_DOUBLE_EQ(rate, 1.0 / 3.0);
}

TEST(FlowFairness, WaterFillingFavorsShortFlow) {
  // Classic two-resource example: flow 0 crosses both links, flows 1 and 2
  // cross one each. Max-min gives the long flow 0.5 and each short flow 0.5
  // on the shared link — but if link 1 is bigger, the short flow there grows
  // past the frozen level.
  const std::vector<double> capacity = {1.0, 2.0};
  const std::vector<std::uint32_t> pool = {0, 1, 0, 1};
  const std::vector<std::uint64_t> begin = {0, 2, 3, 4};
  const FairShareResult r = max_min_fair_rates(capacity, pool, begin);
  EXPECT_DOUBLE_EQ(r.rate[0], 0.5);  // frozen at link 0
  EXPECT_DOUBLE_EQ(r.rate[1], 0.5);
  EXPECT_DOUBLE_EQ(r.rate[2], 1.5);  // takes link 1's slack
  EXPECT_TRUE(check_max_min(capacity, pool, begin, r).empty());
}

TEST(FlowFairness, SimulatorVerifiesOnFuzzedTopologies) {
  Rng rng(0x70F0F);
  const std::vector<std::string> families = {"dsn", "random-regular", "torus", "dln"};
  for (const std::string& family : families) {
    const Topology topo = make_topology_by_name(family, 64);
    FlowConfig cfg;
    cfg.verify = true;
    FlowSimulator sim(topo, cfg);

    std::vector<Demand> demands;
    for (int i = 0; i < 300; ++i) {
      const HostId src = rng.next_below(sim.num_hosts());
      const HostId dst = rng.next_below(sim.num_hosts());
      demands.push_back({src, dst, 1 + rng.next_below(512)});
    }
    const FlowResult res = sim.run(demands);
    EXPECT_TRUE(res.converged) << family;
    EXPECT_EQ(res.verify_violations, 0u) << family << ": " << res.verify_first;
    EXPECT_EQ(res.flows_completed, demands.size()) << family;
    EXPECT_NEAR(res.flits_delivered, static_cast<double>(res.flits_total),
                1e-6 * static_cast<double>(res.flits_total))
        << family;
    EXPECT_GT(res.makespan_cycles, 0.0) << family;
  }
}

TEST(FlowFairness, WorkloadDriversRunToCompletion) {
  const Topology topo = make_topology_by_name("dsn", 64);
  WorkloadParams params;
  params.rack_hosts = 16;
  params.clients = 12;
  params.units = 4;
  params.unit_flits = 128;
  params.seed = 7;
  for (const std::string& name : workload_names()) {
    FlowConfig cfg;
    cfg.verify = true;
    FlowSimulator sim(topo, cfg);
    params.hosts = sim.num_hosts();
    const std::unique_ptr<WorkloadDriver> driver = make_workload(name, params);
    const FlowResult res = sim.run(*driver);
    EXPECT_TRUE(res.converged) << name;
    EXPECT_EQ(res.verify_violations, 0u) << name << ": " << res.verify_first;
    EXPECT_EQ(res.flows, res.flows_completed) << name;
    EXPECT_GT(res.flows, 0u) << name;
  }
}

}  // namespace
}  // namespace dsn::flow
