// dsn-slint: deterministic — see flow_sim.hpp.
#include "dsn/flow/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "dsn/common/error.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/sim/config.hpp"

namespace dsn::flow {

namespace {

/// Flits per cycle of every directed link half and NIC port.
constexpr double kPortCapacity = 1.0;
/// Epoch length ceiling in cycles, and epochs before a run gives up.
constexpr std::uint64_t kMaxEpochCycles = 1ULL << 20;
constexpr std::uint64_t kMaxEpochs = 1ULL << 20;

/// `topo`'s host count under `config`, refused unless the hosts and the
/// resources (arcs, then two ports per host) fit the 32-bit ids.
std::uint32_t checked_hosts(const Topology& topo, const FlowConfig& config) {
  config.validate();
  constexpr std::uint64_t kMaxIds = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t n = topo.num_nodes();
  const std::uint64_t hosts = n * config.hosts_per_switch;
  if (hosts > kMaxIds || 2ULL * topo.graph.num_links() + 2 * hosts > kMaxIds) {
    throw PreconditionError("flow hosts_per_switch: " +
                            std::to_string(config.hosts_per_switch) + " on n = " +
                            std::to_string(n) + " switches gives " + std::to_string(hosts) +
                            " hosts; hosts and resources (arcs + 2 x hosts) must fit the "
                            "32-bit ids");
  }
  return static_cast<std::uint32_t>(hosts);
}

}  // namespace

#if DSN_OBS
namespace {

struct FlowMetrics {
  obs::MetricId flows = obs::MetricsRegistry::global().counter("dsn.flow.flows");
  obs::MetricId completed =
      obs::MetricsRegistry::global().counter("dsn.flow.flows_completed");
  obs::MetricId epochs = obs::MetricsRegistry::global().counter("dsn.flow.epochs");
  obs::MetricId waterfill_rounds =
      obs::MetricsRegistry::global().counter("dsn.flow.waterfill_rounds");
  obs::MetricId active = obs::MetricsRegistry::global().gauge("dsn.flow.active_flows");
  obs::MetricId fct_cycles = obs::MetricsRegistry::global().histogram(
      "dsn.flow.fct_cycles",
      {256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304});

  static const FlowMetrics& get() {
    static FlowMetrics metrics;
    return metrics;
  }
};

}  // namespace
#endif  // DSN_OBS

void FlowConfig::validate() const {
  if (hosts_per_switch == 0) refuse_field("flow hosts_per_switch", hosts_per_switch, "positive");
  if (min_epoch_cycles == 0 || min_epoch_cycles > kMaxEpochCycles) {
    refuse_field("flow min_epoch_cycles", min_epoch_cycles,
                 "in [1, " + std::to_string(kMaxEpochCycles) + "] cycles");
  }
}

FlowSimulator::FlowSimulator(const Topology& topo, const FlowConfig& config)
    : topo_(&topo),
      config_(config),
      num_hosts_(checked_hosts(topo, config)),
      csr_(topo.graph) {
  // Resource capacities: one per directed arc, then per-host injection and
  // ejection ports. Parallel (u, v) links pool their bandwidth on the first
  // arc of the pair (map_route always picks the first), so the remaining
  // parallel arcs are never referenced.
  const std::size_t arcs = csr_.num_arcs();
  std::vector<double> capacity(arcs + 2ULL * num_hosts_, kPortCapacity);
  for (NodeId u = 0; u < csr_.num_nodes(); ++u) {
    const auto nb = csr_.neighbors(u);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      std::size_t mult = 0;
      bool first = true;
      for (std::size_t j = 0; j < nb.size(); ++j) {
        if (nb[j] != nb[k]) continue;
        ++mult;
        if (j < k) first = false;
      }
      capacity[csr_.first_arc(u) + k] =
          first ? kPortCapacity * static_cast<double>(mult) : kPortCapacity;
    }
  }
  problem_ = FairShareProblem(std::move(capacity));

  routes_ = std::make_unique<FlowRoutes>(topo, csr_, config_.updown_max_n);
}

void FlowSimulator::map_route(HostId src, HostId dst) {
  DSN_REQUIRE(src < num_hosts_ && dst < num_hosts_, "demand host id out of range");
  const std::size_t arcs = csr_.num_arcs();
  route_.assign(1, static_cast<std::uint32_t>(arcs + src));
  routes_->switch_path(src / config_.hosts_per_switch, dst / config_.hosts_per_switch,
                       route_scratch_, path_);
  for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
    const NodeId from = path_[i], to = path_[i + 1];
    const auto nb = csr_.neighbors(from);
    std::size_t k = 0;
    while (k < nb.size() && nb[k] != to) ++k;
    DSN_REQUIRE(k < nb.size(), "route hop is not a physical link");
    route_.push_back(static_cast<std::uint32_t>(csr_.first_arc(from) + k));
  }
  route_.push_back(static_cast<std::uint32_t>(arcs + num_hosts_ + dst));
}

namespace {

/// Adapter running a static demand batch through the closed-loop path.
class StaticDriver final : public WorkloadDriver {
 public:
  explicit StaticDriver(const std::vector<Demand>& demands) : demands_(&demands) {}
  const char* name() const override { return "static"; }
  void start(std::vector<Demand>& out) override {
    out.insert(out.end(), demands_->begin(), demands_->end());
  }
  void on_complete(std::uint64_t, double, std::vector<Demand>&) override {}

 private:
  const std::vector<Demand>* demands_;
};

}  // namespace

FlowResult FlowSimulator::run(const std::vector<Demand>& demands) {
  StaticDriver driver(demands);
  return run_loop(driver);
}

FlowResult FlowSimulator::run(WorkloadDriver& driver) { return run_loop(driver); }

FlowResult FlowSimulator::run_loop(WorkloadDriver& driver) {
  DSN_OBS_SPAN("flow.run");
  FlowResult res;
  res.topology = topo_->name;
  res.route_mode = routes_->mode();
  res.workload = driver.name();
  res.hosts = num_hosts_;
  // A run cut short (epoch ceiling, zero-rate flow) leaves its flows open.
  for (const Open& open : active_) problem_.close(open.problem);
  active_.clear();

  std::vector<Demand> pending;
  driver.start(pending);

  double now = 0.0;
  double fct_duration_sum = 0.0;
  std::uint64_t switch_hops = 0;
  std::vector<std::uint64_t> solve_begin;
  std::vector<std::uint32_t> solve_pool;
  std::vector<std::pair<std::uint64_t, double>> completed;  // (index, fct)

  while (true) {
    if (!pending.empty()) {
      // Admission: open each demand in order and count it into the totals.
      active_.reserve(active_.size() + pending.size());
      for (const Demand& d : pending) {
        map_route(d.src, d.dst);
        DSN_REQUIRE(d.flits > 0, "demands must carry at least one flit");
        switch_hops += route_.size() - 2;  // inject + arcs + eject
        res.flits_total += d.flits;
        active_.push_back(
            {res.flows++, problem_.open(route_), static_cast<double>(d.flits), now});
      }
      DSN_OBS_ONLY(DSN_OBS_ADD(FlowMetrics::get().flows, pending.size());)
      pending.clear();
    }
    if (active_.empty()) break;
    if (res.epochs == kMaxEpochs) {
      res.converged = false;
      break;
    }
    ++res.epochs;
    DSN_OBS_ONLY(DSN_OBS_ADD(FlowMetrics::get().epochs, 1);)
    DSN_OBS_ONLY(DSN_OBS_GAUGE_SET(FlowMetrics::get().active,
                                   static_cast<std::int64_t>(active_.size()));)

    const std::uint32_t rounds = problem_.solve();
    res.max_waterfill_rounds = std::max(res.max_waterfill_rounds, rounds);
    res.waterfill_rounds_total += rounds;
    DSN_OBS_ONLY(DSN_OBS_ADD(FlowMetrics::get().waterfill_rounds, rounds);)
    if (config_.verify) {
      // The open flows as a one-shot problem, in admission order.
      FairShareResult fs;
      fs.rounds = rounds;
      solve_begin.assign(1, 0);
      solve_pool.clear();
      for (const Open& open : active_) {
        problem_.append_route(open.problem, solve_pool);
        solve_begin.push_back(solve_pool.size());
        fs.rate.push_back(problem_.rate(open.problem));
        fs.bottleneck.push_back(problem_.bottleneck(open.problem));
      }
      const std::vector<std::string> violations =
          check_max_min(problem_.capacity(), solve_pool, solve_begin, fs);
      res.verify_violations += violations.size();
      if (res.verify_first.empty() && !violations.empty())
        res.verify_first = violations.front();
    }

    // Earliest completion under the solved rates; clamp into the epoch
    // bounds. All of this is serial in admission order.
    double t_min = std::numeric_limits<double>::infinity();
    for (const Open& open : active_) {
      const double rate = problem_.rate(open.problem);
      if (rate > 0.0) t_min = std::min(t_min, open.remaining / rate);
    }
    if (!std::isfinite(t_min)) {
      res.converged = false;  // a zero-rate flow can never finish
      break;
    }
    const double dt =
        std::clamp(t_min, static_cast<double>(config_.min_epoch_cycles),
                   static_cast<double>(kMaxEpochCycles));

    // Retire the flows this epoch completes, in admission order. The driver
    // hears of them once active_ holds only open flows again, so a driver
    // that throws leaves a simulator the next run can reset.
    completed.clear();
    std::size_t kept = 0;
    for (Open& open : active_) {
      const double rate = problem_.rate(open.problem);
      const double delivered = rate * dt;
      if (rate > 0.0 && open.remaining <= delivered * (1.0 + 1e-12)) {
        const double fct = now + open.remaining / rate;
        res.flits_delivered += open.remaining;
        problem_.close(open.problem);
        ++res.flows_completed;
        const double duration = fct - open.admitted;
        fct_duration_sum += duration;
        res.max_fct_cycles = std::max(res.max_fct_cycles, duration);
        res.makespan_cycles = std::max(res.makespan_cycles, fct);
        DSN_OBS_ONLY(DSN_OBS_ADD(FlowMetrics::get().completed, 1);)
        DSN_OBS_ONLY(DSN_OBS_OBSERVE(FlowMetrics::get().fct_cycles,
                                     static_cast<std::uint64_t>(duration));)
        completed.emplace_back(open.index, fct);
      } else {
        open.remaining -= delivered;
        res.flits_delivered += delivered;
        active_[kept++] = open;
      }
    }
    active_.resize(kept);
    now += dt;
    for (const auto& [index, fct] : completed) driver.on_complete(index, fct, pending);
  }

  if (!active_.empty()) res.converged = false;
  if (res.flows > 0)
    res.avg_route_hops = static_cast<double>(switch_hops) / static_cast<double>(res.flows);
  if (res.flows_completed > 0)
    res.avg_fct_cycles = fct_duration_sum / static_cast<double>(res.flows_completed);
  if (res.makespan_cycles > 0.0) {
    res.aggregate_flits_per_cycle = res.flits_delivered / res.makespan_cycles;
    res.per_host_flits_per_cycle =
        res.aggregate_flits_per_cycle / static_cast<double>(num_hosts_);
    res.per_host_gbps = SimConfig{}.flits_per_cycle_to_gbps(res.per_host_flits_per_cycle);
  }
  return res;
}

Json to_json(const FlowResult& r) {
  Json j = Json::object();
  j.set("topology", r.topology);
  j.set("route_mode", r.route_mode);
  j.set("workload", r.workload);
  j.set("hosts", r.hosts);
  j.set("flows", r.flows);
  j.set("flows_completed", r.flows_completed);
  j.set("flits_total", r.flits_total);
  j.set("flits_delivered", r.flits_delivered);
  j.set("epochs", r.epochs);
  j.set("makespan_cycles", r.makespan_cycles);
  j.set("max_waterfill_rounds", static_cast<std::uint64_t>(r.max_waterfill_rounds));
  j.set("waterfill_rounds_total", r.waterfill_rounds_total);
  j.set("converged", r.converged);
  j.set("aggregate_flits_per_cycle", r.aggregate_flits_per_cycle);
  j.set("per_host_flits_per_cycle", r.per_host_flits_per_cycle);
  j.set("per_host_gbps", r.per_host_gbps);
  j.set("avg_fct_cycles", r.avg_fct_cycles);
  j.set("max_fct_cycles", r.max_fct_cycles);
  j.set("avg_route_hops", r.avg_route_hops);
  j.set("verify_violations", r.verify_violations);
  j.set("verify_first", r.verify_first);
  return j;
}

}  // namespace dsn::flow
