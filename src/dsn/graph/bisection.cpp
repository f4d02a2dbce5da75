#include "dsn/graph/bisection.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "dsn/common/rng.hpp"
#include "dsn/graph/csr.hpp"

namespace dsn {

std::uint64_t count_cut_links(const Graph& g, const std::vector<std::uint8_t>& side) {
  DSN_REQUIRE(side.size() == g.num_nodes(), "partition size mismatch");
  std::uint64_t cut = 0;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    if (side[u] != side[v]) ++cut;
  }
  return cut;
}

namespace {

/// External minus internal degree of node u under the partition. Walks the
/// CSR snapshot: gain recomputation is the inner loop of every KL pass.
std::int64_t gain_of(const CsrView& csr, const std::vector<std::uint8_t>& side, NodeId u) {
  std::int64_t gain = 0;
  for (const NodeId v : csr.neighbors(u)) {
    gain += side[v] != side[u] ? 1 : -1;
  }
  return gain;
}

}  // namespace

BisectionResult kernighan_lin_refine(const Graph& g, std::vector<std::uint8_t> side,
                                     int max_passes) {
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(side.size() == n, "partition size mismatch");
  const CsrView csr(g);  // one snapshot serves every pass

  for (int pass = 0; pass < max_passes; ++pass) {
    // One KL pass: greedily swap the best unlocked pair; track the prefix of
    // swaps with the best cumulative gain and commit only that prefix.
    std::vector<std::uint8_t> locked(n, 0);
    std::vector<std::pair<NodeId, NodeId>> swaps;
    std::vector<std::int64_t> cumulative;
    std::int64_t running = 0;

    std::vector<std::int64_t> gain(n);
    for (NodeId u = 0; u < n; ++u) gain[u] = gain_of(csr, side, u);

    const std::size_t max_swaps = n / 2;
    for (std::size_t s = 0; s < max_swaps; ++s) {
      // Best unlocked node on each side by gain.
      NodeId best_a = kInvalidNode, best_b = kInvalidNode;
      for (NodeId u = 0; u < n; ++u) {
        if (locked[u]) continue;
        if (side[u] == 0) {
          if (best_a == kInvalidNode || gain[u] > gain[best_a]) best_a = u;
        } else {
          if (best_b == kInvalidNode || gain[u] > gain[best_b]) best_b = u;
        }
      }
      if (best_a == kInvalidNode || best_b == kInvalidNode) break;
      // Swap gain = g(a) + g(b) - 2 * w(a, b).
      std::int64_t w_ab = 0;
      for (const NodeId v : csr.neighbors(best_a)) {
        if (v == best_b) ++w_ab;
      }
      const std::int64_t swap_gain = gain[best_a] + gain[best_b] - 2 * w_ab;

      // Apply tentatively.
      side[best_a] ^= 1;
      side[best_b] ^= 1;
      locked[best_a] = locked[best_b] = 1;
      running += swap_gain;
      swaps.emplace_back(best_a, best_b);
      cumulative.push_back(running);

      // Update gains of unlocked neighbors (and the swapped pair, which is
      // locked anyway).
      for (const NodeId moved : {best_a, best_b}) {
        for (const NodeId v : csr.neighbors(moved)) {
          if (!locked[v]) gain[v] = gain_of(csr, side, v);
        }
      }
    }

    // Find the best prefix.
    std::int64_t best_gain = 0;
    std::size_t best_len = 0;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (cumulative[i] > best_gain) {
        best_gain = cumulative[i];
        best_len = i + 1;
      }
    }
    // Roll back swaps beyond the best prefix.
    for (std::size_t i = swaps.size(); i > best_len; --i) {
      side[swaps[i - 1].first] ^= 1;
      side[swaps[i - 1].second] ^= 1;
    }
    if (best_gain <= 0) break;  // converged
  }

  BisectionResult result;
  result.side = std::move(side);
  result.cut_links = count_cut_links(g, result.side);
  return result;
}

BisectionResult estimate_bisection(const Graph& g, std::uint64_t seed,
                                   std::uint32_t random_starts) {
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(n >= 2 && n % 2 == 0, "bisection needs an even node count >= 2");

  BisectionResult best;
  best.cut_links = std::numeric_limits<std::uint64_t>::max();

  const auto consider = [&](std::vector<std::uint8_t> side) {
    BisectionResult r = kernighan_lin_refine(g, std::move(side));
    if (r.cut_links < best.cut_links) best = std::move(r);
  };

  // Id split: [0, n/2) vs [n/2, n) — natural for ring-based topologies.
  {
    std::vector<std::uint8_t> side(n, 0);
    for (NodeId u = n / 2; u < n; ++u) side[u] = 1;
    consider(std::move(side));
  }
  // Interleaved split.
  {
    std::vector<std::uint8_t> side(n, 0);
    for (NodeId u = 0; u < n; ++u) side[u] = static_cast<std::uint8_t>(u % 2);
    consider(std::move(side));
  }
  // Random balanced splits.
  Rng rng(seed);
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::uint32_t r = 0; r < random_starts; ++r) {
    for (std::size_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    std::vector<std::uint8_t> side(n, 0);
    for (NodeId i = n / 2; i < n; ++i) side[perm[i]] = 1;
    consider(std::move(side));
  }
  return best;
}

}  // namespace dsn
