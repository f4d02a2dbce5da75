// Repo benchmark binary: one process runs one workload through the public
// API of every layer it exercises and prints one JSON report on stdout.
//
//   dsn_e2e --workload flit-low --seed 1 --seconds 10 --trace 0
//
// bench/e2e/run.py builds this binary, runs it once per workload with
// DSN_THREADS=4 and turns the report into the benchmark's metrics; see
// bench/e2e/README.md for the metric and workload definitions.
//
// Drive model: a closed loop. --seed expands into kInputs input seeds
// (traffic, shuffle order, annealing, estimator sample). After one untimed
// warm-up cycle over every input, a run repeats set-up + operation over the
// inputs in whole cycles until --seconds have elapsed; setup_s is the median
// set-up and work_per_s the median cycle rate, both rescaled to the reference
// host speed (see ref_ns_per_step). An operation is one library
// call on one input (one call in flight), or for a sweep workload one call
// per input, 4 in flight on the pool workers. Every operation is checked,
// and each input's first output digest must repeat on its later operations.
//
// With --trace 1 the first half of the budget runs untraced and the second
// half with obs metrics on, so the traced operations yield the per-layer
// numbers and the two halves give the trace overhead; one more operation,
// kept out of those medians, records the Chrome trace
// bench-trace-<workload>.json in the working directory. Benchmark-side spans
// are named bench.<layer>.<call> and wrap each public call; nothing inside the
// library is instrumented by the benchmark.
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/route_analysis.hpp"
#include "dsn/common/cli.hpp"
#include "dsn/common/json.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/routes.hpp"
#include "dsn/flow/workload.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/obs/obs.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using Layer = std::map<std::string, double>;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// 64-bit FNV-1a, hex: output digests compare runs without storing outputs.
std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Host speed. A shared host's cores change speed with their neighbours' load,
// by up to a fifth within minutes, and every workload's wall-clock rate moves
// with them. A fixed dependent multiply chain, timed on the calling thread's
// CPU clock between operations (so threads left running by the code under
// test cannot slow it), measures that speed. The end-to-end times are
// rescaled to a host that runs one step of the chain in kRefNsPerStep; the
// README gives the measured effect on the run-to-run spread.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kRefSteps = 5'000'000;  // about 8 ms
constexpr double kRefNsPerStep = 1.6;

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Thread CPU ns per step of the reference chain.
double ref_ns_per_step() {
  const double t0 = thread_cpu_ms();
  std::uint64_t h = 1;
  for (std::uint64_t i = 0; i < kRefSteps; ++i) h = h * 6364136223846793005ULL + (h >> 17);
  const double ms = thread_cpu_ms() - t0;
  volatile std::uint64_t sink = h;
  (void)sink;
  return ms * 1e6 / static_cast<double>(kRefSteps);
}

std::string topology_text(const dsn::Topology& topo) {
  std::string text = topo.name + "\n";
  for (dsn::LinkId l = 0; l < topo.graph.num_links(); ++l) {
    const auto [u, v] = topo.graph.link_endpoints(l);
    text += std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  return text;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans. Each span is a Chrome-trace B/E pair on the active
// writer (none when untraced) and a row in the span book, which keeps call
// count, total and self time (duration minus the time its child spans
// cover). Spans open only on the main thread (inside a sweep, workers read
// the clock instead), so one stack serves.
// ---------------------------------------------------------------------------

struct SpanStats {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::map<std::string, SpanStats> g_span_book;
std::vector<double> g_child_ms;  // per open span: time covered by children

class Span {
 public:
  explicit Span(const char* name) : name_(name), trace_(name), start_(Clock::now()) {
    g_child_ms.push_back(0.0);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span early; returns its duration in ms (idempotent).
  double stop() {
    if (open_) {
      open_ = false;
      ms_ = ms_since(start_);
      const double child = g_child_ms.back();
      g_child_ms.pop_back();
      if (!g_child_ms.empty()) g_child_ms.back() += ms_;
      SpanStats& s = g_span_book[name_];
      ++s.calls;
      s.total_ms += ms_;
      s.self_ms += ms_ - child;
    }
    return ms_;
  }

 private:
  const char* name_;
  dsn::obs::TracedSpan trace_;
  Clock::time_point start_;
  bool open_ = true;
  double ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Registry access: per-call deltas of the library's own obs counters.
// ---------------------------------------------------------------------------

double counter(const dsn::obs::Snapshot& s, const char* name) {
  const dsn::obs::MetricSnapshot* m = s.find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->value);
}

double delta(const dsn::obs::Snapshot& before, const dsn::obs::Snapshot& after,
             const char* name) {
  return counter(after, name) - counter(before, name);
}

dsn::obs::Snapshot snapshot() { return dsn::obs::MetricsRegistry::global().snapshot(); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct OpResult {
  double work = 0.0;    ///< work items done (cycles, flows, evaluations, proposals)
  double timed_s = 0.0; ///< host seconds of the calls the work metric covers
  std::string digest;   ///< digest of every simulated / derived output
  std::vector<std::string> failures;
  Layer layer;          ///< per-layer values of this operation
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual dsn::Json config() const = 0;
  /// Build the workload's topologies, tables and simulators (replacing
  /// earlier ones); fills the set-up share of the per-layer values.
  virtual void setup(Layer& layer) = 0;
  /// One operation on `inputs` (inputs_per_op() input seeds). A full one
  /// (the first on each input, and every traced one) also runs the
  /// reference checks that are too slow for every operation and fills the
  /// per-layer values.
  virtual OpResult op(std::span<const std::uint64_t> inputs, bool full) = 0;
  /// 1, or every input for a sweep: that many independent single-threaded
  /// calls, run 4 at a time on the pool workers.
  virtual std::size_t inputs_per_op() const { return 1; }
  /// Digest of the deterministic (seed-independent) topologies.
  virtual std::string topology_digest() const = 0;
  /// Per-layer probes that time one layer outside the operation, run once
  /// in a traced run, after the traced operations.
  virtual void probe(Layer& layer) { (void)layer; }
};

// --- flit-level simulator --------------------------------------------------

struct FlitParams {
  std::uint32_t n = 0;
  bool adaptive = false;  ///< adaptive minimal + up*/down* escape; else DSN custom
  double load_gbps = 0.0;
  std::uint64_t warmup = 0, measure = 0, drain = 0;
};

// A sweep: one simulation per input, each at one shard on a pool worker. At
// these sizes a 4-shard simulation hands the pool a task every few
// microseconds, and its time follows how fast the host wakes an idle vCPU
// (flit-low's 4-shard runs spread by 70 % over ten seeds); the 4-shard run
// stays as the determinism reference and the sim.run_ms.t4 layer metric.
class FlitWorkload final : public Workload {
 public:
  FlitWorkload(const FlitParams& p, std::size_t inputs) : p_(p), inputs_(inputs) {}

  dsn::Json config() const override {
    dsn::Json c = dsn::Json::object();
    c.set("topology", "dsn");
    c.set("n", static_cast<std::uint64_t>(p_.n));
    c.set("hosts", static_cast<std::uint64_t>(p_.n) * cfg_.hosts_per_switch);
    c.set("routing", p_.adaptive ? "adaptive-updown" : "dsn-custom");
    c.set("traffic", "uniform");
    c.set("load_gbps_per_host", p_.load_gbps);
    c.set("warmup_cycles", p_.warmup);
    c.set("measure_cycles", p_.measure);
    c.set("drain_cycles", p_.drain);
    c.set("simulations_per_op", static_cast<std::uint64_t>(inputs_));
    c.set("sim_threads", 1);
    return c;
  }

  std::size_t inputs_per_op() const override { return inputs_; }

  void setup(Layer& layer) override {
    policies_.clear();
    routing_.reset();
    dsn_.reset();
    {
      Span s("bench.topology.generate");
      dsn_ = std::make_unique<dsn::Dsn>(p_.n, dsn::dsn_default_x(p_.n));
      layer["topology.generate_ms"] = s.stop();
    }
    cfg_ = dsn::SimConfig{};
    cfg_.offered_gbps_per_host = p_.load_gbps;
    cfg_.warmup_cycles = p_.warmup;
    cfg_.measure_cycles = p_.measure;
    cfg_.drain_cycles = p_.drain;
    const dsn::Topology& topo = dsn_->topology();
    if (p_.adaptive) {
      Span s("bench.routing.tables");
      routing_ = std::make_unique<dsn::SimRouting>(topo);
      layer["routing.tables_ms"] = s.stop();
    }
    // Simulator::run resets its policy's fault state, so simulations that run
    // at once each need a policy of their own; they share the routing tables.
    for (std::size_t k = 0; k < inputs_; ++k) {
      if (p_.adaptive)
        policies_.push_back(std::make_unique<dsn::AdaptiveUpDownPolicy>(*routing_, cfg_.vcs));
      else
        policies_.push_back(std::make_unique<dsn::DsnCustomPolicy>(*dsn_, cfg_.vcs));
    }
    traffic_ = dsn::make_traffic("uniform", topo.num_nodes() * cfg_.hosts_per_switch);
    // A Simulator is single-use, so every simulation builds its own; this
    // one puts the construction cost into set-up as well.
    Span s("bench.sim.construct");
    const dsn::Simulator sim = simulator(0, 1, 1);
    layer["sim.construct_ms"] = s.stop();
  }

  OpResult op(std::span<const std::uint64_t> inputs, bool full) override {
    OpResult r;
    std::vector<dsn::SimResult> res(inputs.size());
    {
      Span s("bench.sim.sweep_t1");
      dsn::parallel_for(0, inputs.size(), [&](std::size_t k) {
        res[k] = simulator(k, 1, inputs[k]).run();
      });
      r.timed_s = s.stop() / 1000.0;
    }
    std::string dumps, first;
    {
      Span s("bench.sim.to_json");
      for (const dsn::SimResult& x : res) {
        if (!x.drained) r.failures.push_back("sim run did not drain");
        if (x.deadlock) r.failures.push_back("sim run deadlocked");
        if (!x.conservation_ok) r.failures.push_back("packet conservation violated");
        r.work += static_cast<double>(x.cycles_run);
        const std::string dump = dsn::to_json(x).dump();
        if (first.empty()) first = dump;
        dumps += dump + "\n";
      }
    }
    r.digest = digest(dumps);
    if (!full) return r;

    // The first input alone at 1 shard (the counters' source, in the timed
    // mode) and at 4 is the determinism reference and the scaling baseline.
    double t4_ms = 0.0, t1_ms = 0.0;
    dsn::obs::Snapshot before, after;
    for (const std::uint32_t threads : {1u, 4u}) {
      dsn::Simulator sim = simulator(0, threads, inputs[0]);
      dsn::SimResult ref;
      if (threads == 1) {
        before = snapshot();
        Span s("bench.sim.run_t1");
        ref = sim.run();
        t1_ms = s.stop();
        after = snapshot();
      } else {
        Span s("bench.sim.run_t4");
        ref = sim.run();
        t4_ms = s.stop();
      }
      Span s("bench.sim.to_json");
      if (dsn::to_json(ref).dump() != first)
        r.failures.push_back("SimResult differs between shard counts");
    }

    const double cycles = static_cast<double>(res[0].cycles_run);
    const double events = delta(before, after, "dsn.sim.active.events");
    const double hops = delta(before, after, "dsn.sim.hops");
    const double checks = delta(before, after, "dsn.sim.active.alloc_checks");
    r.layer["sim.run_ms.t4"] = t4_ms;
    r.layer["sim.run_ms.t1"] = t1_ms;
    r.layer["sim.shard_speedup"] = ratio(t1_ms, t4_ms);
    r.layer["sim.events"] = events;
    r.layer["sim.events_per_cycle"] = ratio(events, cycles);
    r.layer["sim.ns_per_event"] = ratio(t1_ms * 1e6, events);
    r.layer["sim.sa_visits"] = delta(before, after, "dsn.sim.active.sa_visits");
    r.layer["sim.alloc_checks"] = checks;
    r.layer["sim.hops"] = hops;
    r.layer["sim.credit_stalls"] = delta(before, after, "dsn.sim.credit_stalls");
    r.layer["sim.alloc_useful_ratio"] = ratio(hops, checks);
    return r;
  }

  std::string topology_digest() const override {
    return digest(topology_text(dsn_->topology()));
  }

 private:
  dsn::SimConfig config(std::uint32_t threads, std::uint64_t seed) const {
    dsn::SimConfig cfg = cfg_;
    cfg.sim_threads = threads;
    cfg.seed = seed;
    return cfg;
  }

  /// A simulator on the policy of sweep slot `slot`.
  dsn::Simulator simulator(std::size_t slot, std::uint32_t threads, std::uint64_t seed) const {
    return dsn::Simulator(dsn_->topology(), *policies_[slot], *traffic_,
                          config(threads, seed));
  }

  FlitParams p_;
  std::size_t inputs_;
  dsn::SimConfig cfg_;
  std::unique_ptr<dsn::Dsn> dsn_;
  std::unique_ptr<dsn::SimRouting> routing_;
  std::vector<std::unique_ptr<dsn::SimRoutingPolicy>> policies_;  ///< one per input
  std::unique_ptr<dsn::TrafficPattern> traffic_;
};

// --- flow tier -------------------------------------------------------------

struct FlowParams {
  std::uint32_t n = 0;
  std::uint32_t clients = 0;  ///< mappers = reducers
  std::uint64_t unit_flits = 0;
  std::uint32_t window = 0;
  std::uint64_t min_epoch = 0;
};

class FlowWorkload final : public Workload {
 public:
  FlowWorkload(const FlowParams& p, std::size_t inputs) : p_(p), inputs_(inputs) {}

  dsn::Json config() const override {
    dsn::Json c = dsn::Json::object();
    c.set("topology", "dsn");
    c.set("n", static_cast<std::uint64_t>(p_.n));
    c.set("hosts", static_cast<std::uint64_t>(p_.n) * cfg_.hosts_per_switch);
    c.set("workload", "shuffle");
    c.set("mappers_x_reducers", static_cast<std::uint64_t>(p_.clients));
    c.set("flows", static_cast<std::uint64_t>(p_.clients) * p_.clients);
    c.set("unit_flits", p_.unit_flits);
    c.set("window", static_cast<std::uint64_t>(p_.window));
    c.set("min_epoch_cycles", p_.min_epoch);
    c.set("simulations_per_op", static_cast<std::uint64_t>(inputs_));
    return c;
  }

  // Every shuffle solves on one pool worker: a single 4-way sharded solve
  // at this size is a pool dispatch per few microseconds of work, and its
  // run time follows the host's thread wake-up latency, which swung by
  // 2.5x for a minute at a time.
  std::size_t inputs_per_op() const override { return inputs_; }

  void setup(Layer& layer) override {
    {
      Span s("bench.topology.generate");
      topo_ = dsn::make_dsn(p_.n, dsn::dsn_default_x(p_.n));
      layer["topology.generate_ms"] = s.stop();
    }
    cfg_ = dsn::flow::FlowConfig{};
    cfg_.min_epoch_cycles = p_.min_epoch;
    params_ = dsn::flow::WorkloadParams{};
    params_.hosts = topo_.num_nodes() * cfg_.hosts_per_switch;
    params_.clients = p_.clients;
    params_.unit_flits = p_.unit_flits;
    params_.window = p_.window;
    Span s("bench.flow.construct");
    const dsn::flow::FlowSimulator sim(topo_, cfg_);  // single-use: costed here, rebuilt per run
    layer["flow.construct_ms"] = s.stop();
  }

  OpResult op(std::span<const std::uint64_t> inputs, bool full) override {
    OpResult r;
    dsn::flow::FlowConfig cfg = cfg_;
    cfg.verify = full;  // per-solve max-min check on full operations
    std::vector<dsn::flow::FlowResult> res(inputs.size());
    std::vector<double> run_ms(inputs.size());
    {
      Span s("bench.flow.sweep");
      dsn::parallel_for(0, inputs.size(), [&](std::size_t k) {
        const auto t0 = Clock::now();
        dsn::flow::WorkloadParams params = params_;
        params.seed = inputs[k];
        const auto driver = dsn::flow::make_workload("shuffle", params);
        res[k] = dsn::flow::FlowSimulator(topo_, cfg).run(*driver);
        run_ms[k] = ms_since(t0);
      });
      r.timed_s = s.stop() / 1000.0;
    }
    params_.seed = inputs[0];  // for probe()
    const dsn::obs::Snapshot after = snapshot();

    std::string dumps;
    for (const dsn::flow::FlowResult& x : res) {
      if (!x.converged) r.failures.push_back("flow run did not converge");
      if (x.flows_completed != x.flows) r.failures.push_back("flows left incomplete");
      if (x.verify_violations != 0) r.failures.push_back("max-min violated: " + x.verify_first);
      r.work += static_cast<double>(x.flows_completed);
      dumps += dsn::flow::to_json(x).dump() + "\n";
    }
    r.digest = digest(dumps);

    // Per simulation: the first input's, run alongside the others.
    const double epochs = static_cast<double>(res[0].epochs);
    const double rounds = static_cast<double>(res[0].waterfill_rounds_total);
    r.layer["flow.run_ms"] = run_ms[0];
    r.layer["flow.epochs"] = epochs;
    r.layer["flow.waterfill_rounds"] = rounds;
    r.layer["flow.rounds_per_epoch"] = ratio(rounds, epochs);
    r.layer["flow.ms_per_epoch"] = ratio(run_ms[0], epochs);
    const dsn::obs::MetricSnapshot* active = after.find("dsn.flow.active_flows");
    r.layer["flow.active_flows_max"] =
        active == nullptr ? 0.0 : static_cast<double>(active->gauge_max);
    return r;
  }

  void probe(Layer& layer) override {
    // Route lookup cost per demand, over the demands of the first input.
    const std::unique_ptr<dsn::flow::WorkloadDriver> driver =
        dsn::flow::make_workload("shuffle", params_);
    const std::vector<dsn::Demand> demands = dsn::flow::expand_all_demands(*driver);
    const dsn::CsrView csr(topo_.graph);
    const dsn::flow::FlowRoutes routes(topo_, csr, cfg_.updown_max_n);
    dsn::flow::FlowRoutes::Scratch scratch;
    std::vector<dsn::NodeId> path;
    Span s("bench.flow.switch_path");
    for (const dsn::Demand& d : demands)
      routes.switch_path(d.src / cfg_.hosts_per_switch, d.dst / cfg_.hosts_per_switch,
                         scratch, path);
    layer["flow.route_ns"] = ratio(s.stop() * 1e6, static_cast<double>(demands.size()));
  }

  std::string topology_digest() const override { return digest(topology_text(topo_)); }

 private:
  FlowParams p_;
  std::size_t inputs_;
  dsn::Topology topo_;
  dsn::flow::FlowConfig cfg_;
  dsn::flow::WorkloadParams params_;
};

// --- static analysis -------------------------------------------------------

struct AnalyzeParams {
  std::uint32_t dsne_n = 0;     ///< DSN-E size of the all-pairs route proof
  std::uint32_t family_n = 0;   ///< Fig. 7/8 size of the four families
  std::uint64_t route_pairs = 0;  ///< routing.route_ns sample size
};

class AnalyzeWorkload final : public Workload {
 public:
  AnalyzeWorkload(const AnalyzeParams& p, std::uint64_t seed) : p_(p), seed_(seed) {}

  dsn::Json config() const override {
    dsn::Json c = dsn::Json::object();
    c.set("route_proof", "dsn-e n=" + std::to_string(p_.dsne_n));
    c.set("routes", static_cast<std::uint64_t>(p_.dsne_n) * (p_.dsne_n - 1));
    dsn::Json fam = dsn::Json::array();
    for (const char* f : kFamilies) fam.push_back(f);
    c.set("families", std::move(fam));
    c.set("family_n", static_cast<std::uint64_t>(p_.family_n));
    c.set("route_ns_pairs", p_.route_pairs);
    return c;
  }

  void setup(Layer& layer) override {
    Span s("bench.topology.generate");
    dsne_ = dsn::make_topology_by_name("dsn-e", p_.dsne_n, seed_);
    families_.clear();
    for (const char* f : kFamilies)
      families_.push_back(dsn::make_topology_by_name(f, p_.family_n, seed_));
    layer["topology.generate_ms"] = s.stop();
  }

  // --seed picks the random family's graph at set-up; the operation has no
  // further input.
  OpResult op(std::span<const std::uint64_t> inputs, bool full) override {
    (void)inputs;
    (void)full;
    OpResult r;
    std::string out;
    double cable_ms = 0.0, csr_ms = 0.0, stats_ms = 0.0, torus_ms = 0.0;
    const dsn::obs::Snapshot before = snapshot();
    const auto t0 = Clock::now();

    auto evaluate = [&](const dsn::Topology& topo) {
      dsn::CableReport cable;
      {
        Span s("bench.layout.cable");
        cable = dsn::compute_cable_report(topo);
        cable_ms += s.stop();
      }
      std::unique_ptr<dsn::CsrView> csr;
      {
        Span s("bench.graph.csr_build");
        csr = std::make_unique<dsn::CsrView>(topo.graph);
        csr_ms += s.stop();
      }
      dsn::PathStats ps;
      {
        Span s("bench.graph.path_stats");
        ps = dsn::compute_path_stats(*csr);
        (topo.kind == dsn::TopologyKind::kTorus2D ? torus_ms : stats_ms) += s.stop();
      }
      if (!ps.connected) r.failures.push_back(topo.name + " is not connected");
      out += topo.name + " diameter=" + std::to_string(ps.diameter) +
             " aspl=" + dsn::Json(ps.avg_shortest_path).dump() +
             " cable_m=" + dsn::Json(cable.total_m).dump() + "\n";
    };

    evaluate(dsne_);
    dsn::analyze::RouteAnalysis ra;
    double routes_ms = 0.0;
    {
      Span s("bench.analysis.routes");
      ra = dsn::analyze::analyze_topology_routes(dsne_,
                                                 dsn::analyze::default_family(dsne_.kind));
      routes_ms = s.stop();
    }
    if (!ra.routes_ok()) r.failures.push_back("DSN-E route proof failed");
    if (!ra.cdg_acyclic) r.failures.push_back("DSN-E channel dependency graph is cyclic");
    out += dsn::analyze::to_json(ra).dump() + "\n";
    for (const dsn::Topology& topo : families_) evaluate(topo);
    r.timed_s = ms_since(t0) / 1000.0;
    const dsn::obs::Snapshot after = snapshot();

    r.work = 1.0;
    r.digest = digest(out);
    r.layer["layout.cable_ms"] = cable_ms;
    r.layer["graph.csr_build_ms"] = csr_ms;
    r.layer["graph.path_stats_ms"] = stats_ms;
    r.layer["graph.path_stats_ms.torus"] = torus_ms;
    r.layer["graph.msbfs_batches"] = delta(before, after, "dsn.graph.msbfs_batches");
    r.layer["graph.msbfs_busy_s"] = delta(before, after, "dsn.graph.msbfs_shard_ns") / 1e9;
    r.layer["analysis.routes_ms"] = routes_ms;
    r.layer["analysis.routes_per_s"] = ratio(static_cast<double>(ra.pairs), routes_ms / 1000.0);
    r.layer["analysis.busy_s"] = delta(before, after, "dsn.analysis.shard_ns") / 1e9;
    r.layer["analysis.cdg_dependencies"] = static_cast<double>(ra.cdg_dependencies);
    return r;
  }

  void probe(Layer& layer) override {
    // Mean cost of one routing-function call on a seeded pair sample.
    const dsn::analyze::BoundRouting bound = dsn::analyze::make_route_function(
        dsne_, dsn::analyze::default_family(dsne_.kind));
    dsn::Rng rng(seed_);
    const dsn::NodeId n = dsne_.num_nodes();
    std::vector<std::pair<dsn::NodeId, dsn::NodeId>> pairs(p_.route_pairs);
    for (auto& [s, t] : pairs) {
      s = static_cast<dsn::NodeId>(rng.next_below(n));
      t = static_cast<dsn::NodeId>((s + 1 + rng.next_below(n - 1)) % n);
    }
    std::uint64_t hops = 0;
    Span s("bench.routing.route");
    for (const auto& [src, dst] : pairs) hops += bound.route(src, dst).hops.size();
    const double ms = s.stop();
    if (hops == 0) throw dsn::PreconditionError("route sample produced no hops");
    layer["routing.route_ns"] = ratio(ms * 1e6, static_cast<double>(pairs.size()));
  }

  std::string topology_digest() const override {
    std::string text = topology_text(dsne_);
    for (const dsn::Topology& topo : families_)
      if (topo.kind != dsn::TopologyKind::kDlnRandom) text += topology_text(topo);
    return digest(text);
  }

 private:
  static constexpr const char* kFamilies[] = {"dsn", "dln", "torus", "random"};

  AnalyzeParams p_;
  std::uint64_t seed_;
  dsn::Topology dsne_;
  std::vector<dsn::Topology> families_;
};

// --- shortcut-placement optimizer ------------------------------------------

struct AnnealRun {
  std::string family;
  std::uint32_t n = 0;
  std::uint32_t iterations = 0;
  std::uint32_t sample_sources = 0;  ///< 0 = auto (exact at n <= 1024)
};

// A sweep, like the flit and flow workloads: each input's optimizations run
// on one pool worker. One optimization at a time, parallel inside the
// estimator, hands the pool a few tasks per proposal and lost up to 35 % of
// its rate for a minute at a time while the sweep's rate held.
class AnnealWorkload final : public Workload {
 public:
  AnnealWorkload(std::vector<AnnealRun> runs, std::size_t inputs)
      : runs_(std::move(runs)), inputs_(inputs) {}

  dsn::Json config() const override {
    dsn::Json c = dsn::Json::array();
    for (const AnnealRun& a : runs_) {
      dsn::Json row = dsn::Json::object();
      row.set("topology", a.family);
      row.set("n", static_cast<std::uint64_t>(a.n));
      row.set("passes", 1);
      row.set("proposals", static_cast<std::uint64_t>(a.iterations));
      row.set("sample_sources", a.sample_sources == 0 ? dsn::Json("auto")
                                                      : dsn::Json(static_cast<std::uint64_t>(a.sample_sources)));
      row.set("optimizations_per_op", static_cast<std::uint64_t>(inputs_));
      c.push_back(std::move(row));
    }
    return c;
  }

  std::size_t inputs_per_op() const override { return inputs_; }

  void setup(Layer& layer) override {
    Span s("bench.topology.generate");
    topos_.clear();
    for (const AnnealRun& a : runs_) topos_.push_back(dsn::make_topology_by_name(a.family, a.n));
    layer["topology.generate_ms"] = s.stop();
  }

  OpResult op(std::span<const std::uint64_t> inputs, bool full) override {
    (void)full;
    OpResult r;
    if (exact_aspl_.empty()) {
      // Reference ASPL of the exact-mode cross-check, outside the timed calls.
      Span s("bench.graph.path_stats");
      for (const dsn::Topology& topo : topos_)
        exact_aspl_.push_back(dsn::compute_path_stats(topo.graph).avg_shortest_path);
    }
    // res[k][i]: input k's optimization of seed topology i.
    std::vector<std::vector<dsn::opt::OptimizerResult>> res(inputs.size());
    std::vector<double> run_ms(inputs.size());
    {
      Span s("bench.opt.sweep");
      dsn::parallel_for(0, inputs.size(), [&](std::size_t k) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < runs_.size(); ++i)
          res[k].push_back(dsn::opt::optimize_shortcuts(topos_[i], config_for(runs_[i], inputs[k])));
        run_ms[k] = ms_since(t0);
      });
      r.timed_s = s.stop() / 1000.0;
    }
    input_seed_ = inputs[0];  // for probe()
    run_ms_ = std::accumulate(run_ms.begin(), run_ms.end(), 0.0);

    // Counts are summed over the sweep's optimizations.
    std::string out;
    double proposals = 0, accepted = 0, invalid = 0, resweeps = 0;
    full_sweeps_.assign(runs_.size(), 0.0);
    for (const std::vector<dsn::opt::OptimizerResult>& per_input : res) {
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        const dsn::opt::OptimizerResult& x = per_input[i];
        const std::string name = topos_[i].name;
        if (x.sample_sources == topos_[i].num_nodes() && x.seed_point.aspl != exact_aspl_[i])
          r.failures.push_back(name + ": exact-mode seed ASPL differs from path stats");
        check_front(x, name, r.failures);
        out += dsn::opt::optimizer_result_to_json(x).dump() + "\n";
        proposals += static_cast<double>(x.proposals);
        accepted += static_cast<double>(x.accepted);
        invalid += static_cast<double>(x.invalid);
        resweeps += static_cast<double>(x.resweeps);
        full_sweeps_[i] += static_cast<double>(x.full_sweeps);
      }
    }
    r.work = proposals;
    r.digest = digest(out);
    r.layer["opt.proposals"] = proposals;
    r.layer["opt.accept_ratio"] = ratio(accepted, proposals);
    r.layer["opt.invalid_ratio"] = ratio(invalid, proposals);
    r.layer["opt.resweeps"] = resweeps;
    r.layer["opt.full_sweeps"] = std::accumulate(full_sweeps_.begin(), full_sweeps_.end(), 0.0);
    r.layer["opt.ms_per_proposal"] = ratio(run_ms_, proposals);
    return r;
  }

  void probe(Layer& layer) override {
    // One sampled sweep per anneal seed topology, outside the optimizer and,
    // like the optimizations, on one pool worker; the sweep share prices
    // every drift fallback of the last operation at it.
    double sweep_ms = 0.0, swept_ms = 0.0;
    dsn::ThreadPool& pool = dsn::ThreadPool::global();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const dsn::CsrView csr(topos_[i].graph);
      const dsn::EstimatorConfig cfg = config_for(runs_[i], input_seed_).estimator;
      double ms = 0.0;
      {
        Span s("bench.graph.sampled_sweep");
        pool.submit([&] {
          const auto t0 = Clock::now();
          const dsn::SampledPathEstimator est(csr, cfg);
          ms = ms_since(t0);
        });
        pool.wait_idle();
      }
      sweep_ms += ms;
      swept_ms += full_sweeps_[i] * ms;
    }
    layer["graph.sampled_sweep_ms"] = sweep_ms;
    layer["opt.sweep_share"] = ratio(swept_ms, run_ms_);
  }

  std::string topology_digest() const override {
    std::string text;
    for (const dsn::Topology& topo : topos_) text += topology_text(topo);
    return digest(text);
  }

 private:
  static dsn::opt::OptimizerConfig config_for(const AnnealRun& a, std::uint64_t seed) {
    dsn::opt::OptimizerConfig cfg;
    cfg.seed = seed;
    cfg.passes = 1;
    cfg.iterations = a.iterations;
    cfg.plateau = std::max<std::uint32_t>(1, a.iterations / 6);  // six cooling steps
    cfg.estimator.sample_sources = a.sample_sources;
    cfg.estimator.seed = seed;
    return cfg;
  }

  static void check_front(const dsn::opt::OptimizerResult& res, const std::string& name,
                          std::vector<std::string>& failures) {
    const auto& front = res.front;
    if (front.empty()) {
      failures.push_back(name + ": empty Pareto front");
      return;
    }
    for (std::size_t i = 1; i < front.size(); ++i) {
      if (!(front[i].cable_m > front[i - 1].cable_m && front[i].aspl < front[i - 1].aspl)) {
        failures.push_back(name + ": front is not a strict staircase");
        break;
      }
    }
    const auto& seed = res.seed_point;
    if (std::none_of(front.begin(), front.end(), [&](const dsn::opt::OptPoint& p) {
          return p.cable_m <= seed.cable_m && p.aspl <= seed.aspl;
        }))
      failures.push_back(name + ": front does not cover the seed placement");
  }

  std::vector<AnnealRun> runs_;
  std::size_t inputs_;
  std::uint64_t input_seed_ = 1;  ///< first input of the last operation
  std::vector<dsn::Topology> topos_;
  std::vector<double> exact_aspl_;
  std::vector<double> full_sweeps_;  ///< per run, of the last operation
  double run_ms_ = 0.0;              ///< summed over the last operation's inputs
};

// ---------------------------------------------------------------------------
// Workload table. The full sizes keep one operation under a second on a
// 4-core machine and the process under 30 MB, so a 20 s run holds tens to
// hundreds of operations and spends little time in the last-level cache
// that other tenants of a shared host also use; the smoke sizes
// exercise every check and the report shape in well under a second each.
// ---------------------------------------------------------------------------

// Input seeds per run. The cost of one operation moves with its
// input (drain length, water-filling rounds, annealing moves) by up to a
// fifth between seeds; a median over several inputs keeps that out of the
// run-to-run spread.
constexpr std::size_t kInputs = 8;

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke,
                                        std::uint64_t seed) {
  if (name == "flit-low") {
    return std::make_unique<FlitWorkload>(
        smoke ? FlitParams{64, false, 0.5, 200, 400, 30000}
              : FlitParams{256, false, 0.5, 600, 1200, 30000},
        kInputs);
  }
  if (name == "flit-busy") {
    return std::make_unique<FlitWorkload>(
        smoke ? FlitParams{64, true, 3.0, 200, 400, 30000}
              : FlitParams{128, true, 3.0, 600, 600, 30000},
        kInputs);
  }
  if (name == "flow-shuffle") {
    return std::make_unique<FlowWorkload>(
        smoke ? FlowParams{256, 16, 512, 8, 512} : FlowParams{4096, 32, 512, 8, 512}, kInputs);
  }
  if (name == "analyze") {
    const AnalyzeParams p = smoke ? AnalyzeParams{128, 256, 10000}
                                  : AnalyzeParams{512, 2048, 1000000};
    return std::make_unique<AnalyzeWorkload>(p, seed);
  }
  if (name == "anneal") {
    return std::make_unique<AnnealWorkload>(
        smoke ? std::vector<AnnealRun>{{"dsn", 256, 40, 64}, {"dln", 64, 60, 0}}
              : std::vector<AnnealRun>{{"dsn", 1024, 60, 128}, {"dln", 128, 120, 0}},
        kInputs);
  }
  throw dsn::PreconditionError("unknown workload: " + name);
}

struct Rusage {
  double user_s = 0.0, sys_s = 0.0, minor_faults = 0.0, max_rss_mb = 0.0;
};

Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  r.minor_faults = static_cast<double>(ru.ru_minflt);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

dsn::Json to_json(const Layer& layer) {
  dsn::Json j = dsn::Json::object();
  for (const auto& [k, v] : layer) j.set(k, v);
  return j;
}

/// Per-key median over operations.
Layer median_layer(const std::vector<Layer>& ops) {
  std::map<std::string, std::vector<double>> cols;
  for (const Layer& op : ops)
    for (const auto& [k, v] : op) cols[k].push_back(v);
  Layer out;
  for (auto& [k, v] : cols) out[k] = median(std::move(v));
  return out;
}

struct Phase {
  std::vector<double> setup_ms, op_ms, rate, ref_ns;
  std::vector<Layer> layers;
};

}  // namespace

int main(int argc, char** argv) {
  dsn::Cli cli("Repo benchmark: runs one workload through the dsn public API "
               "and prints a JSON report (see bench/e2e/README.md)");
  cli.add_flag("workload", "", "flit-low, flit-busy, flow-shuffle, analyze or anneal");
  cli.add_flag("seed", "1", "seed of traffic, placement, annealing and random families");
  cli.add_flag("seconds", "10", "measurement budget in host seconds");
  cli.add_flag("trace", "0", "1: also run traced operations for the per-layer metrics");
  cli.add_flag("smoke", "0", "1: toy sizes");
  if (!cli.parse(argc, argv)) return 0;

  const std::string name = cli.get("workload");
  const std::uint64_t seed = cli.get_uint("seed");
  const double seconds = cli.get_double("seconds");
  const bool trace = cli.get_bool("trace");
#if !DSN_OBS
  if (trace) {
    std::cerr << "dsn_e2e: --trace 1 needs a DSN_OBS=1 build\n";
    return 2;
  }
#endif

  try {
    std::unique_ptr<Workload> wl = make_workload(name, cli.get_bool("smoke"), seed);

    // The global pool is created lazily; warm it (threads started, task
    // queues touched) so no operation pays for its construction.
    dsn::ThreadPool& pool = dsn::ThreadPool::global();
    for (int i = 0; i < 4; ++i) pool.parallel_for(0, 4 * pool.size(), [](std::size_t) {});

    // Freed memory stays in the heap: without this, glibc's dynamic mmap
    // threshold switches part-way through a run from fresh zeroed pages to
    // reused heap, and set-up and operation times change mode with it.
#ifdef M_MMAP_THRESHOLD
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif

    std::vector<std::uint64_t> inputs;
    dsn::SplitMix64 mix(seed);
    for (std::size_t k = 0; k < kInputs; ++k) inputs.push_back(mix.next());

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> input_digests(kInputs);  // first output of each input
    std::vector<std::string> failures;
    // Set-up runs before every operation, so both sample the whole run: the
    // host's speed drifts over seconds, and a set-up phase of its own would
    // catch only one stretch of it. A phase runs whole cycles, each input
    // once, until its budget is spent; a cycle's rate (its work over its
    // timed seconds) is one sample, so every sample weighs the inputs alike.
    const std::size_t per_op = wl->inputs_per_op();
    auto run_phase = [&](double budget_s, bool full, Phase& phase) {
      const auto t0 = Clock::now();
      do {
        double work = 0.0, timed_s = 0.0;
        for (std::size_t k = 0; k < kInputs; k += per_op) {
          Layer op_layer;
          const auto setup_t0 = Clock::now();
          wl->setup(op_layer);
          phase.setup_ms.push_back(ms_since(setup_t0));
          const auto op_t0 = Clock::now();
          OpResult r;
          {
            Span s("bench.op");
            r = wl->op(std::span(inputs).subspan(k, per_op), full || input_digests[k].empty());
          }
          phase.op_ms.push_back(ms_since(op_t0));
          work += r.work;
          timed_s += r.timed_s;
          ++attempted;
          if (input_digests[k].empty()) input_digests[k] = r.digest;
          if (r.digest != input_digests[k])
            r.failures.push_back("output digest changed between operations on one input");
          if (!r.failures.empty()) {
            ++failed;
            for (const std::string& f : r.failures)
              if (std::find(failures.begin(), failures.end(), f) == failures.end())
                failures.push_back(f);
          }
          op_layer.insert(r.layer.begin(), r.layer.end());
          phase.layers.push_back(std::move(op_layer));
        }
        phase.rate.push_back(ratio(work, timed_s));
        phase.ref_ns.push_back(ref_ns_per_step());
      } while (ms_since(t0) < budget_s * 1000.0);
    };

    Phase warmup, plain, traced, chrome;
    Layer layer;
    // The first cycle runs the full checks on every input and leaves caches,
    // heap and page tables warm; it stays out of every median.
    run_phase(0.0, false, warmup);
    // In a traced run both halves run full operations, so the two medians
    // differ only by the cost of observing.
    run_phase(trace ? seconds / 2 : seconds, trace, plain);

    dsn::Json spans = dsn::Json::object();
    if (trace) {
      // Metrics stay on for every traced operation. The Chrome trace covers
      // only the probes and one cycle of its own phase, outside every
      // median: the library records a span per pool task, tens of MB per
      // flow-tier operation, and the retained events would change the heap
      // the operations after them see.
      g_span_book.clear();
      dsn::obs::MetricsRegistry::global().reset();
      dsn::obs::set_metrics_enabled(true);
      const Rusage before_ru = rusage_now();
      const dsn::obs::Snapshot before = snapshot();
      const auto t0 = Clock::now();
      run_phase(seconds / 2, true, traced);
      const double wall_s = ms_since(t0) / 1000.0;
      // parallel_for returns once every chunk has run, but a worker records
      // its task's time and closes its pool.task span just after: wait for
      // that before reading counters and before closing the trace.
      pool.wait_idle();
      const dsn::obs::Snapshot after = snapshot();
      const Rusage after_ru = rusage_now();
      const double n_ops = static_cast<double>(traced.op_ms.size());

      dsn::obs::start_trace();
      wl->probe(layer);
      const std::map<std::string, SpanStats> span_book = g_span_book;
      run_phase(0.0, true, chrome);
      pool.wait_idle();
      if (!dsn::obs::stop_trace("bench-trace-" + name + ".json")) {
        ++failed;
        failures.push_back("Chrome trace could not be written");
      }
      dsn::obs::set_metrics_enabled(false);

      for (const auto& [k, v] : median_layer(traced.layers)) layer[k] = v;
      const double workers = static_cast<double>(pool.size());
      const double busy_s = delta(before, after, "dsn.pool.task_ns") / 1e9;
      layer["proc.cpu_user_s"] = (after_ru.user_s - before_ru.user_s) / n_ops;
      layer["proc.cpu_sys_s"] = (after_ru.sys_s - before_ru.sys_s) / n_ops;
      layer["proc.minor_faults"] = (after_ru.minor_faults - before_ru.minor_faults) / n_ops;
      layer["pool.tasks"] = delta(before, after, "dsn.pool.tasks_executed") / n_ops;
      layer["pool.busy_s"] = busy_s / n_ops;
      layer["pool.util"] = ratio(busy_s, wall_s * workers);
      layer["bench.trace_overhead_pct"] =
          100.0 * (ratio(median(traced.op_ms), median(plain.op_ms)) - 1.0);
      for (const auto& [k, s] : span_book) {
        dsn::Json js = dsn::Json::object();
        js.set("calls", s.calls);
        js.set("total_ms", s.total_ms);
        js.set("self_ms", s.self_ms);
        spans.set(k, std::move(js));
      }
    }

    dsn::Json report = dsn::Json::object();
    report.set("workload", name);
    report.set("seed", seed);
    report.set("config", wl->config());
    dsn::Json build = dsn::Json::object();
    build.set("build_type", DSN_E2E_BUILD_TYPE);
    build.set("compiler", DSN_E2E_COMPILER);
    build.set("dsn_obs", static_cast<std::int64_t>(DSN_OBS));
    build.set("pool_workers", static_cast<std::uint64_t>(pool.size()));
    report.set("build", std::move(build));
    report.set("attempted", attempted);
    report.set("failed", failed);
    dsn::Json jf = dsn::Json::array();
    for (const std::string& f : failures) jf.push_back(f);
    report.set("failures", std::move(jf));
    dsn::Json digests = dsn::Json::object();
    digests.set("topology", wl->topology_digest());
    std::string outputs;
    for (std::size_t k = 0; k < kInputs; k += per_op) outputs += input_digests[k] + "\n";
    digests.set("output", digest(outputs));
    report.set("digests", std::move(digests));
    dsn::Json samples = dsn::Json::object();
    auto arr = [](const std::vector<double>& v) {
      dsn::Json a = dsn::Json::array();
      for (const double x : v) a.push_back(x);
      return a;
    };
    samples.set("setup_ms", arr(plain.setup_ms));
    samples.set("op_ms", arr(plain.op_ms));
    samples.set("work_per_s", arr(plain.rate));
    samples.set("ref_ns_per_step", arr(plain.ref_ns));
    if (trace) samples.set("traced_op_ms", arr(traced.op_ms));
    report.set("samples", std::move(samples));
    // slowdown > 1: the host ran slower than the reference speed.
    const double slowdown = median(plain.ref_ns) / kRefNsPerStep;
    dsn::Json host = dsn::Json::object();
    host.set("ref_ns_per_step", median(plain.ref_ns));
    host.set("slowdown", slowdown);
    host.set("work_per_s_unscaled", median(plain.rate));
    host.set("setup_s_unscaled", median(plain.setup_ms) / 1000.0);
    report.set("host", std::move(host));
    dsn::Json e2e = dsn::Json::object();
    e2e.set("work_per_s", median(plain.rate) * slowdown);
    e2e.set("setup_s", median(plain.setup_ms) / 1000.0 / slowdown);
    e2e.set("peak_rss_mb", rusage_now().max_rss_mb);
    report.set("end_to_end", std::move(e2e));
    if (trace) {
      layer["bench.ref_ns_per_step"] = median(plain.ref_ns);
      report.set("per_layer", to_json(layer));
      report.set("spans", std::move(spans));
    }
    std::cout << report.dump() << "\n";
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "dsn_e2e: " << e.what() << "\n";
    return 2;
  }
}
