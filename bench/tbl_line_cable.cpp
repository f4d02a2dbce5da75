// Theorem 2b: the 1-D line cable model. Nodes evenly spaced at distance 1 on
// a line; DSN's average shortcut length is <= n/p while DLN-2-2's is ~n/3, so
// DSN saves a ~p/3 factor in shortcut cabling.
#include <iostream>

#include "dsn/common/cli.hpp"
#include "dsn/common/table.hpp"
#include "dsn/layout/layout.hpp"
#include "dsn/topology/dsn.hpp"
#include "dsn/topology/generators.hpp"

namespace {

int run(int argc, char** argv) {
  dsn::Cli cli("Theorem 2b reproduction: shortcut lengths in the 1-D line model.");
  cli.add_flag("sizes", "64,128,256,512,1024,2048", "comma-separated node counts");
  cli.add_flag("seed", "1", "seed for DLN-2-2");
  if (!cli.parse(argc, argv)) return 0;

  const auto sizes = cli.get_uint32_list("sizes");
  const auto seed = cli.get_uint("seed");

  dsn::Table table({"N", "p", "DSN span", "~n/p bound", "DSN line", "DLN-2-2 line",
                    "n/3 ref", "saving factor", "p/3 ref"});
  for (const std::uint32_t n : sizes) {
    const dsn::Dsn d(n, dsn::dsn_default_x(n));
    const auto dsn_stats = dsn::compute_line_cable_stats(d.topology());
    const auto rnd = dsn::make_dln_random(n, 2, 2, seed);
    const auto rnd_stats = dsn::compute_line_cable_stats(rnd);
    table.row()
        .cell(n)
        .cell(static_cast<std::uint64_t>(d.p()))
        .cell(dsn_stats.avg_shortcut_span, 1)
        .cell(static_cast<double>(n) / d.p(), 1)
        .cell(dsn_stats.avg_shortcut_length, 1)
        .cell(rnd_stats.avg_shortcut_length, 1)
        .cell(static_cast<double>(n) / 3.0, 1)
        .cell(rnd_stats.avg_shortcut_length / dsn_stats.avg_shortcut_length, 2)
        .cell(static_cast<double>(d.p()) / 3.0, 2);
  }
  table.print(std::cout,
              "Theorem 2b: shortcut cable lengths, 1-D line model (span = designed "
              "ring distance; line = |u-v| on the physical line)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dsn::run_main(argc, argv, run); }
