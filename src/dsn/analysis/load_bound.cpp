#include "dsn/analysis/load_bound.hpp"

#include <algorithm>
#include <numeric>

#include "dsn/graph/estimator.hpp"

namespace dsn::analyze {

LoadSummary summarize_loads(std::vector<std::uint64_t> loads) {
  LoadSummary s;
  if (loads.empty()) return s;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    s.total += loads[i];
    if (loads[i] > s.max_load) {
      s.max_load = loads[i];
      s.max_index = i;
    }
  }
  s.mean = static_cast<double>(s.total) / static_cast<double>(loads.size());
  std::sort(loads.begin(), loads.end());
  long double weighted = 0.0L, total = 0.0L;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    weighted += static_cast<long double>(i + 1) * loads[i];
    total += loads[i];
  }
  if (total == 0.0L) return s;
  const long double m = static_cast<long double>(loads.size());
  s.gini = static_cast<double>(2.0L * weighted / (m * total) - (m + 1.0L) / m);
  return s;
}

TreeLoadBound compute_tree_load_bound(const CsrView& csr,
                                      std::span<const NodeId> sources) {
  TreeLoadBound b;
  b.n = csr.num_nodes();
  b.sample_sources = static_cast<std::uint32_t>(sources.size());
  b.links = csr.num_arcs() / 2;
  const LoadSummary loads = summarize_loads(compute_tree_loads(csr, sources).loads);
  b.total = loads.total;
  b.max_load = loads.max_load;
  b.max_link = static_cast<LinkId>(loads.max_index);
  b.mean_load = loads.mean;
  b.gini = loads.gini;
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
