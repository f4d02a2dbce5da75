// dsn-slint: deterministic — see workload.hpp.
#include "dsn/flow/workload.hpp"

#include <algorithm>
#include <string>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"

namespace dsn::flow {

void WorkloadParams::validate() const {
  if (hosts == 0) refuse_field("workload hosts", hosts, "positive");
  if (rack_hosts == 0) refuse_field("workload rack_hosts", rack_hosts, "positive");
  if (clients == 0 || clients > hosts) {
    refuse_field("workload clients", clients,
                 "in [1, " + std::to_string(hosts) + "], the host count");
  }
  if (units == 0) refuse_field("workload units", units, "positive");
  if (unit_flits == 0) refuse_field("workload unit_flits", unit_flits, "positive");
  if (window == 0) refuse_field("workload window", window, "positive");
}

namespace {

std::uint32_t rack_of(const WorkloadParams& p, HostId h) { return h / p.rack_hosts; }

std::uint32_t num_racks(const WorkloadParams& p) {
  return (p.hosts + p.rack_hosts - 1) / p.rack_hosts;
}

/// Seeded sample of `count` distinct hosts (rejection against a dense bitmap;
/// callers guarantee count <= hosts).
std::vector<HostId> sample_hosts(std::uint32_t count, std::uint32_t hosts, Rng& rng) {
  std::vector<std::uint8_t> used(hosts, 0);
  std::vector<HostId> out;
  out.reserve(count);
  while (out.size() < count) {
    const HostId h = static_cast<HostId>(rng.next_below(hosts));
    if (used[h]) continue;
    used[h] = 1;
    out.push_back(h);
  }
  return out;
}

/// Any host other than `avoid` (requires hosts >= 2).
HostId other_host(const WorkloadParams& p, HostId avoid, Rng& rng) {
  for (;;) {
    const HostId h = static_cast<HostId>(rng.next_below(p.hosts));
    if (h != avoid) return h;
  }
}

/// A host in a different rack than `h`; falls back to any other host when the
/// cluster has a single rack.
HostId remote_rack_host(const WorkloadParams& p, HostId h, Rng& rng) {
  if (num_racks(p) <= 1) return other_host(p, h, rng);
  for (;;) {
    const HostId c = static_cast<HostId>(rng.next_below(p.hosts));
    if (rack_of(p, c) != rack_of(p, h)) return c;
  }
}

/// A host in the same rack as `h` but distinct from it; falls back to any
/// other host when `h` is alone in its rack.
HostId same_rack_host(const WorkloadParams& p, HostId h, Rng& rng) {
  const std::uint32_t base = rack_of(p, h) * p.rack_hosts;
  const std::uint32_t size = std::min(p.rack_hosts, p.hosts - base);
  if (size <= 1) return other_host(p, h, rng);
  for (;;) {
    const HostId c = static_cast<HostId>(base + rng.next_below(size));
    if (c != h) return c;
  }
}

/// HDFS-style bulk I/O. Read mode: each client pulls `units` blocks from
/// seeded replica hosts. Write mode: each block runs a two-stage replication
/// pipeline — client -> remote-rack replica, then replica -> a same-rack third
/// copy — chained through completions (the stage-one copy must land before
/// stage two starts, like a pipelined HDFS write acknowledges downstream).
class HdfsDriver final : public WorkloadDriver {
 public:
  HdfsDriver(const WorkloadParams& params, bool write)
      : p_(params), write_(write), rng_(params.seed) {
    clients_ = sample_hosts(p_.clients, p_.hosts, rng_);
    next_block_.assign(p_.clients, 0);
    outstanding_.assign(p_.clients, 0);
  }

  const char* name() const override { return write_ ? "hdfs-write" : "hdfs-read"; }

  void start(std::vector<Demand>& out) override {
    for (std::uint32_t c = 0; c < p_.clients; ++c) {
      while (outstanding_[c] < p_.window && next_block_[c] < p_.units)
        emit_block(c, out);
    }
  }

  void on_complete(std::uint64_t index, double, std::vector<Demand>& out) override {
    const Meta m = meta_[index];
    if (m.stage == 0 && write_) {
      // First replica landed; forward the block to the third copy in-rack.
      const HostId mid = meta_src_[index];
      meta_.push_back({m.client, 1});
      meta_src_.push_back(0);
      out.push_back({mid, same_rack_host(p_, mid, rng_), p_.unit_flits});
      return;
    }
    --outstanding_[m.client];
    if (next_block_[m.client] < p_.units) emit_block(m.client, out);
  }

 private:
  struct Meta {
    std::uint32_t client;
    std::uint8_t stage;  // write mode: 0 = client->r2, 1 = r2->r3
  };

  void emit_block(std::uint32_t c, std::vector<Demand>& out) {
    ++next_block_[c];
    ++outstanding_[c];
    const HostId client = clients_[c];
    if (write_) {
      const HostId r2 = remote_rack_host(p_, client, rng_);
      meta_.push_back({c, 0});
      meta_src_.push_back(r2);
      out.push_back({client, r2, p_.unit_flits});
    } else {
      meta_.push_back({c, 0});
      meta_src_.push_back(0);
      out.push_back({other_host(p_, client, rng_), client, p_.unit_flits});
    }
  }

  WorkloadParams p_;
  bool write_;
  Rng rng_;
  std::vector<HostId> clients_;
  std::vector<std::uint32_t> next_block_;   // blocks started, per client
  std::vector<std::uint32_t> outstanding_;  // open blocks, per client
  std::vector<Meta> meta_;                  // per emitted demand
  std::vector<HostId> meta_src_;            // stage-0 replica host (write mode)
};

/// Hadoop sort shuffle: `clients` mappers and `clients` reducers on disjoint
/// seeded hosts; every reducer fetches one partition from every mapper in a
/// seeded per-reducer order, `window` fetches in flight.
class ShuffleDriver final : public WorkloadDriver {
 public:
  explicit ShuffleDriver(const WorkloadParams& params) : p_(params), rng_(params.seed) {
    DSN_REQUIRE(2ULL * p_.clients <= p_.hosts,
                "shuffle places mappers and reducers on disjoint hosts");
    const std::vector<HostId> placed = sample_hosts(2 * p_.clients, p_.hosts, rng_);
    mappers_.assign(placed.begin(), placed.begin() + p_.clients);
    reducers_.assign(placed.begin() + p_.clients, placed.end());
    fetch_order_.resize(p_.clients);
    for (std::uint32_t r = 0; r < p_.clients; ++r) {
      fetch_order_[r].resize(p_.clients);
      for (std::uint32_t m = 0; m < p_.clients; ++m) fetch_order_[r][m] = m;
      // Fisher–Yates with the shared seeded stream.
      for (std::uint32_t i = p_.clients - 1; i > 0; --i)
        std::swap(fetch_order_[r][i], fetch_order_[r][rng_.next_below(i + 1)]);
    }
    next_fetch_.assign(p_.clients, 0);
  }

  const char* name() const override { return "shuffle"; }

  void start(std::vector<Demand>& out) override {
    for (std::uint32_t r = 0; r < p_.clients; ++r) {
      const std::uint32_t burst = std::min(p_.window, p_.clients);
      for (std::uint32_t i = 0; i < burst; ++i) emit_fetch(r, out);
    }
  }

  void on_complete(std::uint64_t index, double, std::vector<Demand>& out) override {
    const std::uint32_t r = reducer_of_[index];
    if (next_fetch_[r] < p_.clients) emit_fetch(r, out);
  }

 private:
  void emit_fetch(std::uint32_t r, std::vector<Demand>& out) {
    const std::uint32_t m = fetch_order_[r][next_fetch_[r]++];
    reducer_of_.push_back(r);
    out.push_back({mappers_[m], reducers_[r], p_.unit_flits});
  }

  WorkloadParams p_;
  Rng rng_;
  std::vector<HostId> mappers_, reducers_;
  std::vector<std::vector<std::uint32_t>> fetch_order_;  // per reducer
  std::vector<std::uint32_t> next_fetch_;
  std::vector<std::uint32_t> reducer_of_;  // per emitted demand
};

/// Barrier-synchronised wave driver: the all-reduce variants precompute their
/// transfer schedule as a list of waves; wave w+1 starts when every flow of
/// wave w has completed (the collective's step barrier).
class WaveDriver final : public WorkloadDriver {
 public:
  WaveDriver(std::string name, std::vector<std::vector<Demand>> waves)
      : name_(std::move(name)), waves_(std::move(waves)) {}

  const char* name() const override { return name_.c_str(); }

  void start(std::vector<Demand>& out) override { emit_wave(out); }

  void on_complete(std::uint64_t, double, std::vector<Demand>& out) override {
    if (--outstanding_ == 0) emit_wave(out);
  }

 private:
  void emit_wave(std::vector<Demand>& out) {
    while (wave_ < waves_.size()) {
      const std::vector<Demand>& w = waves_[wave_++];
      if (w.empty()) continue;
      outstanding_ = w.size();
      out.insert(out.end(), w.begin(), w.end());
      return;
    }
  }

  std::string name_;
  std::vector<std::vector<Demand>> waves_;
  std::size_t wave_ = 0;
  std::size_t outstanding_ = 0;
};

/// Ring all-reduce over k seeded ranks: 2(k-1) steps; in every step each rank
/// passes one chunk (unit_flits / k, floored at 1) to its ring successor.
std::unique_ptr<WorkloadDriver> make_allreduce_ring(const WorkloadParams& p) {
  Rng rng(p.seed);
  const std::vector<HostId> ranks = sample_hosts(p.clients, p.hosts, rng);
  const std::uint32_t k = p.clients;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, p.unit_flits / k);
  std::vector<std::vector<Demand>> waves;
  if (k > 1) {
    waves.assign(2ULL * (k - 1), {});
    for (auto& wave : waves) {
      wave.reserve(k);
      for (std::uint32_t i = 0; i < k; ++i)
        wave.push_back({ranks[i], ranks[(i + 1) % k], chunk});
    }
  }
  return std::make_unique<WaveDriver>("allreduce-ring", std::move(waves));
}

/// Binary-tree all-reduce: ranks in heap layout (children of i are 2i+1 and
/// 2i+2); reduce up one level per wave, then broadcast down, full buffers.
std::unique_ptr<WorkloadDriver> make_allreduce_tree(const WorkloadParams& p) {
  Rng rng(p.seed);
  const std::vector<HostId> ranks = sample_hosts(p.clients, p.hosts, rng);
  const std::uint32_t k = p.clients;
  std::vector<std::vector<std::uint32_t>> levels;  // rank indices per depth
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t depth = 0;
    for (std::uint32_t v = i; v > 0; v = (v - 1) / 2) ++depth;
    if (depth >= levels.size()) levels.resize(depth + 1);
    levels[depth].push_back(i);
  }
  std::vector<std::vector<Demand>> waves;
  for (std::size_t d = levels.size(); d-- > 1;) {  // reduce: deepest level first
    std::vector<Demand> wave;
    for (const std::uint32_t i : levels[d])
      wave.push_back({ranks[i], ranks[(i - 1) / 2], p.unit_flits});
    waves.push_back(std::move(wave));
  }
  for (std::size_t d = 1; d < levels.size(); ++d) {  // broadcast: root outward
    std::vector<Demand> wave;
    for (const std::uint32_t i : levels[d])
      wave.push_back({ranks[(i - 1) / 2], ranks[i], p.unit_flits});
    waves.push_back(std::move(wave));
  }
  return std::make_unique<WaveDriver>("allreduce-tree", std::move(waves));
}

/// Storage rebuild after a host loss: clients * units lost blocks, each
/// re-replicated from a seeded surviving source to a seeded target (both
/// distinct from the lost host), clients * window transfers in flight.
class RebuildDriver final : public WorkloadDriver {
 public:
  explicit RebuildDriver(const WorkloadParams& params) : p_(params), rng_(params.seed) {
    DSN_REQUIRE(p_.hosts >= 3, "rebuild needs a lost host plus source and target");
    lost_ = static_cast<HostId>(rng_.next_below(p_.hosts));
    blocks_ = static_cast<std::uint64_t>(p_.clients) * p_.units;
  }

  const char* name() const override { return "rebuild"; }

  void start(std::vector<Demand>& out) override {
    const std::uint64_t burst =
        std::min<std::uint64_t>(blocks_, static_cast<std::uint64_t>(p_.clients) * p_.window);
    for (std::uint64_t i = 0; i < burst; ++i) emit_block(out);
  }

  void on_complete(std::uint64_t, double, std::vector<Demand>& out) override {
    if (started_ < blocks_) emit_block(out);
  }

 private:
  void emit_block(std::vector<Demand>& out) {
    ++started_;
    const HostId src = other_host(p_, lost_, rng_);
    HostId dst = other_host(p_, lost_, rng_);
    while (dst == src) dst = other_host(p_, lost_, rng_);
    out.push_back({src, dst, p_.unit_flits});
  }

  WorkloadParams p_;
  Rng rng_;
  HostId lost_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t started_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadDriver> make_workload(const std::string& name,
                                              const WorkloadParams& params) {
  params.validate();
  if (name == "hdfs-read") return std::make_unique<HdfsDriver>(params, false);
  if (name == "hdfs-write") return std::make_unique<HdfsDriver>(params, true);
  if (name == "shuffle") return std::make_unique<ShuffleDriver>(params);
  if (name == "allreduce-ring") return make_allreduce_ring(params);
  if (name == "allreduce-tree") return make_allreduce_tree(params);
  if (name == "rebuild") return std::make_unique<RebuildDriver>(params);
  DSN_REQUIRE(false, "unknown workload: " + name);
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "hdfs-read", "hdfs-write", "shuffle",
      "allreduce-ring", "allreduce-tree", "rebuild"};
  return names;
}

std::vector<Demand> expand_all_demands(WorkloadDriver& driver) {
  std::vector<Demand> all;
  driver.start(all);
  for (std::size_t i = 0; i < all.size(); ++i) driver.on_complete(i, 0.0, all);
  return all;
}

}  // namespace dsn::flow
