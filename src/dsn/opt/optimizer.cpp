// dsn-slint: deterministic
#include "dsn/opt/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/topology/shortcut_set.hpp"

namespace dsn::opt {

#if DSN_OBS
namespace {

struct OptMetrics {
  obs::MetricId proposals = obs::MetricsRegistry::global().counter("dsn.opt.proposals");
  obs::MetricId accepts = obs::MetricsRegistry::global().counter("dsn.opt.accepts");
  obs::MetricId full_sweeps =
      obs::MetricsRegistry::global().counter("dsn.opt.full_sweeps");
  obs::MetricId plateau_ns = obs::MetricsRegistry::global().counter("dsn.opt.plateau_ns");
  obs::MetricId plateaus = obs::MetricsRegistry::global().counter("dsn.opt.plateaus");

  static const OptMetrics& get() {
    static OptMetrics metrics;
    return metrics;
  }
};

}  // namespace
#endif  // DSN_OBS

namespace {

/// Scalarization weight sets (aspl, cable, load), cycled per pass: an
/// ASPL-leaning pass, a cable-leaning pass, and a balanced pass each walk a
/// different region of the front; the archive keeps whatever any of them find.
constexpr std::array<std::array<double, 3>, 3> kPassWeights{{
    {1.0, 0.3, 0.1},
    {0.3, 1.0, 0.1},
    {0.7, 0.7, 0.3},
}};

/// Metropolis temperature (objective units, normalized to the seed
/// placement): start, factor per plateau, floor.
constexpr double kInitialTemperature = 0.02;
constexpr double kCooling = 0.85;
constexpr double kMinTemperature = 1e-4;

/// Fraction of proposals drawn as *local partner exchanges* (two shortcuts
/// adjacent in sorted-endpoint order swap far partners, roughly keeping both
/// spans: cable fine-tuning); the rest are global swaps that explore ASPL.
constexpr double kLocalBias = 0.75;
/// Half-width (in sorted-endpoint positions) of a local move. 1 would waste
/// ~half the draws: nodes carry ~2 endpoints, so the neighbor entry is often
/// the same node.
constexpr std::uint64_t kLocalWindow = 4;

}  // namespace

OptimizerResult optimize_shortcuts(const Topology& topo, const OptimizerConfig& cfg) {
  DSN_REQUIRE(cfg.iterations > 0 && cfg.passes > 0, "passes/iterations must be positive");
  DSN_REQUIRE(cfg.plateau > 0, "plateau must be positive");

  OptimizerResult result;
  result.topology = topo.name;
  result.n = topo.graph.num_nodes();
  result.links = topo.graph.num_links();
  const DegreeStats degrees = compute_degree_stats(topo.graph);
  result.degree_min = degrees.min_degree;
  result.degree_max = degrees.max_degree;
  result.degree_avg = degrees.avg_degree;

  const FloorLayout layout(topo, MachineRoomConfig{}, PlacementStrategy::kLinear);
  const auto pair_cable = [&layout](const std::pair<NodeId, NodeId>& e) {
    return layout.cable_length_m(e.first, e.second);
  };
  const double seed_cable = compute_cable_report(topo, layout).total_m;

  // The seed placement is swept once; every pass starts from a copy.
  const MutableShortcutSet seed_view(topo);
  const SampledPathEstimator seed_est(seed_view.snapshot(), cfg.estimator);
  const EstimateView& sv = seed_est.current();
  const std::uint64_t seed_reachable = sv.reachable_pairs;
  result.shortcuts = seed_view.num_shortcuts();
  result.sample_sources = static_cast<std::uint32_t>(seed_est.sources().size());
  result.seed_point = OptPoint{seed_cable, sv.aspl, sv.max_normalized_load,
                               sv.throughput_bound, 0, 0};
  result.best_shortcuts.assign(seed_view.shortcuts().begin(), seed_view.shortcuts().end());

  ParetoArchive archive;
  archive.insert(result.seed_point);
  result.best_cable_m_at_seed_aspl = result.seed_point.cable_m;
  result.best_aspl = result.seed_point.aspl;

  const double aspl_scale = std::max(result.seed_point.aspl, 1e-12);
  const double cable_scale = std::max(result.seed_point.cable_m, 1e-12);
  const double load_scale = std::max(result.seed_point.max_normalized_load, 1e-12);

  SplitMix64 seed_stream(cfg.seed);
  for (std::uint32_t pass = 0; pass < cfg.passes; ++pass) {
    const std::uint64_t pass_seed = seed_stream.next();
    Rng rng(pass_seed);
    const std::array<double, 3>& w = kPassWeights[pass % kPassWeights.size()];
    const auto objective = [&](double cable, double aspl, double load) {
      return w[0] * aspl / aspl_scale + w[1] * cable / cable_scale +
             w[2] * load / load_scale;
    };

    MutableShortcutSet view = seed_view;
    SampledPathEstimator est = seed_est;
    double cable = seed_cable;
    const std::size_t num_slots = view.num_shortcuts();
    double temperature = kInitialTemperature;

    // Sorted endpoint index for local partner exchanges: entries
    // (endpoint, slot * 2 + side) ordered by endpoint id. Under the linear
    // placement, adjacency in this order is adjacency in cable space, so an
    // exchange between neighboring entries approximately preserves both
    // shortcut spans.
    std::vector<std::pair<NodeId, std::uint32_t>> endpoint_index;
    endpoint_index.reserve(2 * num_slots);
    for (std::uint32_t s = 0; s < num_slots; ++s) {
      endpoint_index.emplace_back(view.shortcut(s).first, 2 * s);
      endpoint_index.emplace_back(view.shortcut(s).second, 2 * s + 1);
    }
    std::sort(endpoint_index.begin(), endpoint_index.end());
    const auto index_remove = [&endpoint_index](NodeId x, std::uint32_t code) {
      const auto it = std::lower_bound(endpoint_index.begin(), endpoint_index.end(),
                                       std::pair<NodeId, std::uint32_t>{x, code});
      DSN_REQUIRE(it != endpoint_index.end() && it->first == x && it->second == code,
                  "endpoint index out of sync");
      endpoint_index.erase(it);
    };
    const auto index_insert = [&endpoint_index](NodeId x, std::uint32_t code) {
      endpoint_index.insert(
          std::lower_bound(endpoint_index.begin(), endpoint_index.end(),
                           std::pair<NodeId, std::uint32_t>{x, code}),
          {x, code});
    };
    const std::uint64_t window = std::min<std::uint64_t>(kLocalWindow, 2 * num_slots - 1);

    for (std::uint32_t start = 0; start < cfg.iterations; start += cfg.plateau) {
      DSN_OBS_TIMER(OptMetrics::get().plateau_ns, OptMetrics::get().plateaus);
      const std::uint32_t stop = std::min(cfg.iterations, start + cfg.plateau);
      for (std::uint32_t iter = start; iter < stop; ++iter) {
        ++result.proposals;
        DSN_OBS_ADD(OptMetrics::get().proposals, 1);

        std::size_t i;
        std::size_t j;
        bool cross;
        if (rng.next_double() < kLocalBias) {
          // Local partner exchange: two endpoints adjacent in sorted order
          // swap partners. Matching sides (first/first or second/second)
          // maps to a cross swap, mixed sides to a straight swap — either
          // way each near endpoint inherits the other's far partner.
          const std::size_t e =
              static_cast<std::size_t>(rng.next_below(endpoint_index.size()));
          const std::uint64_t off = 1 + rng.next_below(window);
          const bool fwd = (rng.next() & 1) != 0;
          const std::size_t e2 = static_cast<std::size_t>(
              (e + (fwd ? off : endpoint_index.size() - off)) %
              endpoint_index.size());
          const std::uint32_t ci = endpoint_index[e].second;
          const std::uint32_t cj = endpoint_index[e2].second;
          i = ci >> 1;
          j = cj >> 1;
          if (i == j) {
            ++result.invalid;
            continue;
          }
          cross = (ci & 1) == (cj & 1);
        } else {
          i = static_cast<std::size_t>(rng.next_below(num_slots));
          j = static_cast<std::size_t>(rng.next_below(num_slots - 1));
          if (j >= i) ++j;
          cross = (rng.next() & 1) != 0;
        }
        const std::pair<NodeId, NodeId> old_i = view.shortcut(i);
        const std::pair<NodeId, NodeId> old_j = view.shortcut(j);
        if (!view.try_swap(i, j, cross)) {
          ++result.invalid;
          continue;
        }
        const std::pair<NodeId, NodeId> new_i = view.shortcut(i);
        const std::pair<NodeId, NodeId> new_j = view.shortcut(j);
        const double cand_cable = cable + pair_cable(new_i) + pair_cable(new_j) -
                                  pair_cable(old_i) - pair_cable(old_j);
        const EstimateView cand = est.evaluate(view.snapshot());

        // Never walk through placements the sampled sweep cannot certify as
        // reachable-equivalent to the seed (swaps cannot disconnect the
        // fixed skeleton, but they can orphan nothing — this guards the
        // estimate itself).
        bool accept = false;
        if (cand.reachable_pairs >= seed_reachable) {
          const double cur_obj = objective(cable, est.current().aspl,
                                           est.current().max_normalized_load);
          const double cand_obj =
              objective(cand_cable, cand.aspl, cand.max_normalized_load);
          const double delta = cand_obj - cur_obj;
          accept = delta <= 0.0 ||
                   rng.next_double() < std::exp(-delta / temperature);
        }
        if (!accept) {
          view.undo_last();
          est.discard();
          continue;
        }

        est.commit();
        cable = cand_cable;
        index_remove(old_i.first, static_cast<std::uint32_t>(2 * i));
        index_remove(old_i.second, static_cast<std::uint32_t>(2 * i + 1));
        index_remove(old_j.first, static_cast<std::uint32_t>(2 * j));
        index_remove(old_j.second, static_cast<std::uint32_t>(2 * j + 1));
        index_insert(new_i.first, static_cast<std::uint32_t>(2 * i));
        index_insert(new_i.second, static_cast<std::uint32_t>(2 * i + 1));
        index_insert(new_j.first, static_cast<std::uint32_t>(2 * j));
        index_insert(new_j.second, static_cast<std::uint32_t>(2 * j + 1));
        ++result.accepted;
        DSN_OBS_ADD(OptMetrics::get().accepts, 1);

        archive.insert(OptPoint{cable, cand.aspl, cand.max_normalized_load,
                                cand.throughput_bound, pass, iter + 1});
        result.best_aspl = std::min(result.best_aspl, cand.aspl);
        if (cand.aspl <= result.seed_point.aspl &&
            cable < result.best_cable_m_at_seed_aspl) {
          result.best_cable_m_at_seed_aspl = cable;
          result.best_shortcuts.assign(view.shortcuts().begin(),
                                       view.shortcuts().end());
        }
      }
      temperature = std::max(kMinTemperature, temperature * kCooling);
    }

    result.full_sweeps += est.full_sweeps();
    DSN_OBS_ADD(OptMetrics::get().full_sweeps, est.full_sweeps());
  }

  result.front = archive.front_2d();
  result.archive_size = archive.size();
  result.beats_seed =
      result.best_cable_m_at_seed_aspl < result.seed_point.cable_m;
  if (result.seed_point.cable_m > 0.0) {
    result.cable_saved_pct =
        100.0 * (result.seed_point.cable_m - result.best_cable_m_at_seed_aspl) /
        result.seed_point.cable_m;
  }
  return result;
}

namespace {

Json point_json(const OptPoint& p) {
  Json j = Json::object();
  j.set("cable_m", p.cable_m);
  j.set("aspl", p.aspl);
  j.set("max_normalized_load", p.max_normalized_load);
  j.set("throughput_bound", p.throughput_bound);
  j.set("pass", static_cast<std::uint64_t>(p.pass));
  j.set("iteration", static_cast<std::uint64_t>(p.iteration));
  return j;
}

}  // namespace

Json optimizer_result_to_json(const OptimizerResult& r) {
  Json j = Json::object();
  j.set("topology", r.topology);
  j.set("n", static_cast<std::uint64_t>(r.n));
  j.set("links", static_cast<std::uint64_t>(r.links));
  j.set("shortcuts", static_cast<std::uint64_t>(r.shortcuts));
  j.set("degree_min", static_cast<std::uint64_t>(r.degree_min));
  j.set("degree_max", static_cast<std::uint64_t>(r.degree_max));
  j.set("degree_avg", r.degree_avg);
  j.set("sample_sources", static_cast<std::uint64_t>(r.sample_sources));
  j.set("seed_point", point_json(r.seed_point));
  Json front = Json::array();
  for (const OptPoint& p : r.front) front.push_back(point_json(p));
  j.set("front", std::move(front));
  j.set("archive_size", static_cast<std::uint64_t>(r.archive_size));
  j.set("proposals", r.proposals);
  j.set("accepted", r.accepted);
  j.set("invalid", r.invalid);
  j.set("full_sweeps", r.full_sweeps);
  j.set("beats_seed", r.beats_seed);
  j.set("best_cable_m_at_seed_aspl", r.best_cable_m_at_seed_aspl);
  j.set("cable_saved_pct", r.cable_saved_pct);
  j.set("best_aspl", r.best_aspl);
  return j;
}

}  // namespace dsn::opt
