// dsn-slint: deterministic — generated traffic must replay byte-identically
// from a seed; iteration order here is part of the contract.
#include "dsn/sim/traffic.hpp"

#include <array>

#include "dsn/common/error.hpp"
#include "dsn/common/math.hpp"

namespace dsn {

UniformTraffic::UniformTraffic(std::uint32_t num_hosts) : num_hosts_(num_hosts) {
  DSN_REQUIRE(num_hosts >= 2, "uniform traffic needs >= 2 hosts");
}

HostId UniformTraffic::dest(HostId src, Rng& rng) const {
  // Sample from [0, H-1) and skip over src to stay uniform over others.
  const auto d = static_cast<HostId>(rng.next_below(num_hosts_ - 1));
  return d >= src ? d + 1 : d;
}

BitReversalTraffic::BitReversalTraffic(std::uint32_t num_hosts)
    : num_hosts_(num_hosts), bits_(ilog2_floor(num_hosts)) {
  DSN_REQUIRE(is_pow2(num_hosts), "bit reversal needs a power-of-two host count");
}

HostId BitReversalTraffic::dest(HostId src, Rng&) const {
  HostId out = 0;
  for (std::uint32_t b = 0; b < bits_; ++b) {
    out = (out << 1) | ((src >> b) & 1u);
  }
  return out;
}

NeighboringTraffic::NeighboringTraffic(std::uint32_t num_hosts)
    : num_hosts_(num_hosts), side_(static_cast<std::uint32_t>(isqrt(num_hosts))) {
  DSN_REQUIRE(side_ * side_ == num_hosts,
              "neighboring traffic needs a square host count for the 2-D array");
}

HostId NeighboringTraffic::dest(HostId src, Rng& rng) const {
  // The paper's 90 % neighboring share (§VII-A).
  constexpr double kLocalFraction = 0.9;
  if (!rng.bernoulli(kLocalFraction)) {
    const auto d = static_cast<HostId>(rng.next_below(num_hosts_ - 1));
    return d >= src ? d + 1 : d;
  }
  const std::uint32_t x = src % side_;
  const std::uint32_t y = src / side_;
  std::array<HostId, 4> candidates{};
  std::size_t count = 0;
  if (x > 0) candidates[count++] = src - 1;
  if (x + 1 < side_) candidates[count++] = src + 1;
  if (y > 0) candidates[count++] = src - side_;
  if (y + 1 < side_) candidates[count++] = src + side_;
  return candidates[rng.next_below(count)];
}

TransposeTraffic::TransposeTraffic(std::uint32_t num_hosts)
    : num_hosts_(num_hosts), side_(static_cast<std::uint32_t>(isqrt(num_hosts))) {
  DSN_REQUIRE(side_ * side_ == num_hosts, "transpose needs a square host count");
}

HostId TransposeTraffic::dest(HostId src, Rng&) const {
  const std::uint32_t x = src % side_;
  const std::uint32_t y = src / side_;
  return x * side_ + y;
}

ShuffleTraffic::ShuffleTraffic(std::uint32_t num_hosts)
    : num_hosts_(num_hosts), bits_(ilog2_floor(num_hosts)) {
  DSN_REQUIRE(is_pow2(num_hosts), "shuffle needs a power-of-two host count");
}

HostId ShuffleTraffic::dest(HostId src, Rng&) const {
  const HostId top = (src >> (bits_ - 1)) & 1u;
  return ((src << 1) | top) & (num_hosts_ - 1);
}

HotspotTraffic::HotspotTraffic(std::uint32_t num_hosts, HostId hot, double hot_fraction)
    : num_hosts_(num_hosts), hot_(hot), hot_fraction_(hot_fraction) {
  DSN_REQUIRE(hot < num_hosts, "hot host out of range");
  DSN_REQUIRE(hot_fraction >= 0.0 && hot_fraction <= 1.0, "fraction must be in [0, 1]");
}

HostId HotspotTraffic::dest(HostId src, Rng& rng) const {
  if (src != hot_ && rng.bernoulli(hot_fraction_)) return hot_;
  const auto d = static_cast<HostId>(rng.next_below(num_hosts_ - 1));
  return d >= src ? d + 1 : d;
}

std::unique_ptr<TrafficPattern> make_traffic(const std::string& name,
                                             std::uint32_t num_hosts) {
  if (name == "uniform") return std::make_unique<UniformTraffic>(num_hosts);
  if (name == "bit-reversal" || name == "bitrev")
    return std::make_unique<BitReversalTraffic>(num_hosts);
  if (name == "neighboring") return std::make_unique<NeighboringTraffic>(num_hosts);
  if (name == "transpose") return std::make_unique<TransposeTraffic>(num_hosts);
  if (name == "shuffle") return std::make_unique<ShuffleTraffic>(num_hosts);
  if (name == "hotspot")
    return std::make_unique<HotspotTraffic>(num_hosts, 0, 0.1);
  throw PreconditionError("unknown traffic pattern: " + name);
}

}  // namespace dsn
