// dsn-slint: deterministic — FlowResult feeds byte-identical replay gates
// across DSN_THREADS: admission routes each batch serially in demand order
// and the fair-share solver is serial (see fair_share.hpp).
//
// The flow-level simulation tier. Where the flit simulator moves individual
// flits cycle by cycle, this tier treats each demand as a fluid *flow* over
// its switch-level route and advances time in discrete epochs:
//
//   1. admit newly emitted demands in demand order, routing each one and
//      opening it on the fair-share problem, which keeps its route;
//   2. solve the max-min fair rate allocation over per-resource capacities
//      (directed link halves + host injection/ejection ports, each 1
//      flit/cycle like the flit sim) by progressive water-filling, on one
//      fair-share problem the run keeps across epochs: a flow joins it when
//      admitted and leaves it when retired;
//   3. advance to the earliest flow completion (clamped to the epoch
//      bounds), retire completed flows at their exact completion time, and
//      hand them to the workload driver, which may emit successors.
//
// The tier is cross-validated against the flit simulator at small n
// (tests/test_flow_crossval.cpp) and scales to millions of hosts where the
// flit sim cannot go (bench/micro_flow.cpp, BENCH_flow.json).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsn/common/json.hpp"
#include "dsn/flow/fair_share.hpp"
#include "dsn/flow/routes.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/sim/demand.hpp"
#include "dsn/topology/topology.hpp"

namespace dsn::flow {

/// Every resource carries one flit per cycle, like the flit simulator's
/// directed link halves and NIC ports; rates convert to Gb/s at SimConfig's
/// link rate. An epoch lasts at most 2^20 cycles, and a run stops
/// (converged = false) after 2^20 epochs.
struct FlowConfig {
  std::uint32_t hosts_per_switch = 4;  ///< matches SimConfig for cross-validation
  /// Epoch floor: each epoch advances to the earliest flow completion, but at
  /// least this many cycles (at most 2^20). The floor batches completions
  /// when millions of flows would otherwise each trigger a water-filling
  /// solve; 1 = exact completion-event stepping.
  std::uint64_t min_epoch_cycles = 1;
  std::uint32_t updown_max_n = 4096;        ///< FlowRoutes table fallback cap
  bool verify = false;  ///< run check_max_min on every solve (tests, dsn-lint)

  void validate() const;
};

struct FlowResult {
  std::string topology;
  std::string route_mode;
  std::string workload;
  std::uint64_t hosts = 0;
  std::uint64_t flows = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flits_total = 0;
  double flits_delivered = 0.0;
  std::uint64_t epochs = 0;
  double makespan_cycles = 0.0;  ///< last completion time (exact, sub-epoch)
  std::uint32_t max_waterfill_rounds = 0;
  std::uint64_t waterfill_rounds_total = 0;
  /// True iff every flow completed and the epoch ceiling was not hit.
  bool converged = true;
  double aggregate_flits_per_cycle = 0.0;  ///< flits_delivered / makespan
  double per_host_flits_per_cycle = 0.0;
  double per_host_gbps = 0.0;
  double avg_fct_cycles = 0.0;
  double max_fct_cycles = 0.0;
  double avg_route_hops = 0.0;  ///< mean switch hops per flow
  std::uint64_t verify_violations = 0;  ///< check_max_min findings (verify only)
  std::string verify_first;             ///< first finding, for reports
};

/// Byte-stable JSON projection (key order fixed; doubles via Json's dump).
Json to_json(const FlowResult& result);

/// Closed-loop demand source. The simulator admits demands in emission order
/// and reports completions in admission order at exact completion times, so
/// driver state evolves deterministically.
class WorkloadDriver {
 public:
  virtual ~WorkloadDriver() = default;
  virtual const char* name() const = 0;
  /// Emit the initial demand wave.
  virtual void start(std::vector<Demand>& out) = 0;
  /// Demand `index` (global admission order) completed at `cycle`; append
  /// successor demands to `out`.
  virtual void on_complete(std::uint64_t index, double cycle, std::vector<Demand>& out) = 0;
};

class FlowSimulator {
 public:
  FlowSimulator(const Topology& topo, const FlowConfig& config);

  /// Run a static demand batch to completion (all demands start at cycle 0).
  /// Every run starts from no flows, so a reused simulator reports what a
  /// fresh one would.
  FlowResult run(const std::vector<Demand>& demands);
  /// Run a closed-loop workload to completion; demand indices start at 0.
  FlowResult run(WorkloadDriver& driver);

  std::uint32_t num_hosts() const { return num_hosts_; }

 private:
  FlowResult run_loop(WorkloadDriver& driver);
  /// Write the resource ids of (src, dst)'s switch path into route_:
  /// injection port, first matching directed arc per hop, ejection port.
  void map_route(HostId src, HostId dst);

  const Topology* topo_;
  FlowConfig config_;
  /// Declared before csr_: its initializer refuses a configuration whose
  /// ids overflow before anything is allocated.
  std::uint32_t num_hosts_;
  CsrView csr_;
  std::unique_ptr<FlowRoutes> routes_;
  FlowRoutes::Scratch route_scratch_;  ///< reused by every admitted route
  std::vector<NodeId> path_;           ///< switch path being mapped
  std::vector<std::uint32_t> route_;   ///< resource ids being mapped

  /// Capacities of the arcs, then the inject ports, then the eject ports,
  /// and this run's open flows with their routes.
  FairShareProblem problem_;
  struct Open {
    std::uint64_t index;    ///< admission index, the driver's demand index
    std::uint32_t problem;  ///< flow id in problem_
    double remaining;       ///< flits left
    double admitted;        ///< admission cycle
  };
  std::vector<Open> active_;  ///< open flows, admission order
};

}  // namespace dsn::flow
