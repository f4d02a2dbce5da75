#include "dsn/analysis/load_bound.hpp"

#include <algorithm>
#include <numeric>

#include "dsn/graph/estimator.hpp"

namespace dsn::analyze {

namespace {

double gini_index(std::vector<std::uint64_t> loads) {
  if (loads.empty()) return 0.0;
  std::sort(loads.begin(), loads.end());
  long double weighted = 0.0L, total = 0.0L;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    weighted += static_cast<long double>(i + 1) * loads[i];
    total += loads[i];
  }
  if (total == 0.0L) return 0.0;
  const long double m = static_cast<long double>(loads.size());
  return static_cast<double>(2.0L * weighted / (m * total) - (m + 1.0L) / m);
}

}  // namespace

TreeLoadBound compute_tree_load_bound(const CsrView& csr,
                                      std::span<const NodeId> sources) {
  TreeLoadBound b;
  b.n = csr.num_nodes();
  b.sample_sources = static_cast<std::uint32_t>(sources.size());
  b.links = csr.num_arcs() / 2;
  const std::vector<std::int64_t> loads = compute_tree_loads(csr, sources).loads;

  std::vector<std::uint64_t> plain(loads.size());
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const auto load = static_cast<std::uint64_t>(std::max<std::int64_t>(loads[l], 0));
    plain[l] = load;
    b.total += load;
    if (load > b.max_load) {
      b.max_load = load;
      b.max_link = static_cast<LinkId>(l);
    }
  }
  if (b.links > 0)
    b.mean_load = static_cast<double>(b.total) / static_cast<double>(b.links);
  b.gini = gini_index(std::move(plain));
  if (b.max_load > 0 && b.n > 1 && b.sample_sources > 0) {
    b.max_normalized = static_cast<double>(b.max_load) * static_cast<double>(b.n) /
                       (static_cast<double>(b.sample_sources) *
                        static_cast<double>(b.n - 1));
    b.throughput_bound = 1.0 / b.max_normalized;
  }
  return b;
}

TreeLoadBound compute_tree_load_bound(const CsrView& csr) {
  std::vector<NodeId> sources(csr.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  return compute_tree_load_bound(csr, sources);
}

Json to_json(const TreeLoadBound& b) {
  Json j = Json::object();
  j.set("n", static_cast<std::uint64_t>(b.n));
  j.set("sample_sources", static_cast<std::uint64_t>(b.sample_sources));
  j.set("links", static_cast<std::uint64_t>(b.links));
  j.set("total", b.total);
  j.set("max", b.max_load);
  j.set("max_link", static_cast<std::uint64_t>(b.max_link));
  j.set("mean", b.mean_load);
  j.set("gini", b.gini);
  j.set("max_normalized", b.max_normalized);
  j.set("throughput_bound", b.throughput_bound);
  return j;
}

}  // namespace dsn::analyze
