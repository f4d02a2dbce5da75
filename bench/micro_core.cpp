// Google-benchmark microbenchmarks for the substrate: topology construction,
// BFS/APSP metrics, DSN custom routing and up*/down* table construction.
#include <benchmark/benchmark.h>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/routing/cdg.hpp"
#include "dsn/routing/dsn_routing.hpp"
#include "dsn/routing/updown.hpp"
#include "dsn/topology/dsn.hpp"

namespace {

void BM_BuildDsn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    dsn::Dsn d(n, dsn::dsn_default_x(n));
    benchmark::DoNotOptimize(d.topology().graph.num_links());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildDsn)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_BuildRandom(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto t = dsn::make_topology_by_name("random", n, seed++);
    benchmark::DoNotOptimize(t.graph.num_links());
  }
}
BENCHMARK(BM_BuildRandom)->RangeMultiplier(4)->Range(64, 1024);

void BM_Bfs(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto topo = dsn::make_topology_by_name("dsn", n);
  for (auto _ : state) {
    auto d = dsn::bfs_distances(topo.graph, 0);
    benchmark::DoNotOptimize(d.back());
  }
}
BENCHMARK(BM_Bfs)->RangeMultiplier(4)->Range(64, 4096);

void BM_PathStats(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto topo = dsn::make_topology_by_name("dsn", n);
  for (auto _ : state) {
    auto s = dsn::compute_path_stats(topo.graph);
    benchmark::DoNotOptimize(s.diameter);
  }
}
BENCHMARK(BM_PathStats)->RangeMultiplier(4)->Range(64, 1024);

void BM_DsnRoute(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const dsn::Dsn d(n, dsn::dsn_default_x(n));
  const dsn::DsnRouter router(d);
  dsn::NodeId s = 0, t = n / 2;
  for (auto _ : state) {
    auto r = router.route(s, t);
    benchmark::DoNotOptimize(r.length());
    s = (s + 7) % n;
    t = (t + 13) % n;
  }
}
BENCHMARK(BM_DsnRoute)->RangeMultiplier(4)->Range(64, 4096);

void BM_UpDownTables(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto topo = dsn::make_topology_by_name("dsn", n);
  const dsn::CsrView csr(topo.graph);
  for (auto _ : state) {
    dsn::UpDownRouting r(csr, 0, dsn::ThreadPool::global());
    benchmark::DoNotOptimize(r.next_hop(0, n - 1));
  }
}
BENCHMARK(BM_UpDownTables)->RangeMultiplier(4)->Range(64, 512);

void BM_BuildDsnCdg(benchmark::State& state) {
  // All-ordered-pairs CDG construction on DSN-2-n, the low-x configuration
  // whose routes degenerate toward ring walks (total hops grow ~ n^2 * n/8
  // once the shortcut premise x > p - log p fails). Consecutive routes from
  // one source share 99 % of their hops at n = 1024, and add_route indexes
  // only the rest, so this now times route generation and the prefix walk
  // more than the flat-hash channel index. One iteration per size: at
  // n = 4096 a single build walks billions of hops, so this records wall
  // time rather than a statistically tight mean.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const dsn::Dsn d(n, 2);
  for (auto _ : state) {
    auto cdg = dsn::build_dsn_cdg(d, /*extended=*/false);
    benchmark::DoNotOptimize(cdg.num_dependencies());
    state.counters["channels"] = static_cast<double>(cdg.num_channels());
  }
}
BENCHMARK(BM_BuildDsnCdg)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
