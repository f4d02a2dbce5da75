// Synthetic traffic patterns (§VII-A): uniform random, bit reversal, and
// "neighboring" (90% of packets to 2-D-array neighbors), plus the classic
// transpose, shuffle and hotspot patterns for additional experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dsn/common/rng.hpp"
#include "dsn/common/types.hpp"

namespace dsn {

/// Destination chooser. Implementations must be stateless apart from the
/// caller-provided RNG so simulations stay reproducible.
class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  virtual const char* name() const = 0;
  /// Pick a destination host for a packet from `src` (may equal src for
  /// patterns like bit reversal on palindromic addresses).
  virtual HostId dest(HostId src, Rng& rng) const = 0;
};

/// Uniformly random destination != src.
class UniformTraffic final : public TrafficPattern {
 public:
  explicit UniformTraffic(std::uint32_t num_hosts);
  const char* name() const override { return "uniform"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
};

/// Destination = bit-reversed source over ceil(log2(num_hosts)) bits.
/// Requires num_hosts to be a power of two.
class BitReversalTraffic final : public TrafficPattern {
 public:
  explicit BitReversalTraffic(std::uint32_t num_hosts);
  const char* name() const override { return "bit-reversal"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
  std::uint32_t bits_;
};

/// 90% of packets go to a uniformly chosen existing 4-neighbor in a 2-D array
/// layout of the hosts (no wraparound); the rest are uniform random (§VII-A).
class NeighboringTraffic final : public TrafficPattern {
 public:
  explicit NeighboringTraffic(std::uint32_t num_hosts);
  const char* name() const override { return "neighboring"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
  std::uint32_t side_;
};

/// Destination = matrix transpose of the source index in a square array.
class TransposeTraffic final : public TrafficPattern {
 public:
  explicit TransposeTraffic(std::uint32_t num_hosts);
  const char* name() const override { return "transpose"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
  std::uint32_t side_;
};

/// Destination = source rotated left by one bit (perfect shuffle).
class ShuffleTraffic final : public TrafficPattern {
 public:
  explicit ShuffleTraffic(std::uint32_t num_hosts);
  const char* name() const override { return "shuffle"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
  std::uint32_t bits_;
};

/// A fraction of packets target one hot host; the rest are uniform.
class HotspotTraffic final : public TrafficPattern {
 public:
  HotspotTraffic(std::uint32_t num_hosts, HostId hot, double hot_fraction);
  const char* name() const override { return "hotspot"; }
  HostId dest(HostId src, Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
  HostId hot_;
  double hot_fraction_;
};

/// Factory by name: "uniform", "bit-reversal", "neighboring", "transpose",
/// "shuffle", "hotspot".
std::unique_ptr<TrafficPattern> make_traffic(const std::string& name,
                                             std::uint32_t num_hosts);

}  // namespace dsn
