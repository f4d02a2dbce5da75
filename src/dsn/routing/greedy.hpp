// Greedy geographic routing on Kleinberg-style grid topologies (§II, [15]):
// at each step move to the neighbor with the smallest lattice (Manhattan)
// distance to the destination, using local information only. Kleinberg proved
// greedy finds paths of expected length O(log^2 n) — asymptotically quadratic
// in the optimum [16] — which is the weakness the DSN custom routing is
// designed to avoid.
#pragma once

#include <vector>

#include "dsn/graph/csr.hpp"

namespace dsn {

/// Greedy path (node sequence, both ends included) over a CSR snapshot of a
/// side x side grid with optional shortcuts. The base grid guarantees a
/// strictly closer neighbor at every step, so the walk always terminates; a
/// defensive cap still guards against malformed graphs.
std::vector<NodeId> route_greedy_grid(const CsrView& csr, std::uint32_t side, NodeId s,
                                      NodeId t);

}  // namespace dsn
