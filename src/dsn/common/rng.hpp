// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (random topologies, traffic
// generators) take an explicit 64-bit seed so every experiment is exactly
// reproducible. We use SplitMix64 for seeding and xoshiro256** as the
// workhorse generator (both public-domain algorithms by Blackman & Vigna).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace dsn {

/// SplitMix64: used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x3243f6a8885a308dULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Rejection sampling on the top bits keeps the distribution exactly uniform.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      const unsigned __int128 m = static_cast<unsigned __int128>(r) * bound;
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= threshold) return static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Integer cut of a Bernoulli(prob) draw: the 53-bit draw x = next() >> 11
  /// succeeds iff x < bernoulli_cut(prob). Since x · 2^-53 is exact, this is
  /// next_double() < prob for every prob: x < prob · 2^53 iff
  /// x < ceil(prob · 2^53). Zero, negative and NaN probabilities never
  /// succeed; probabilities >= 1 always do.
  static std::uint64_t bernoulli_cut(double prob) {
    if (!(prob > 0.0)) return 0;
    if (prob >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(prob * 0x1.0p53));
  }

  /// One Bernoulli draw against a precomputed bernoulli_cut.
  bool bernoulli_below(std::uint64_t cut) { return (next() >> 11) < cut; }

  /// True with probability prob (clamped to [0,1]).
  bool bernoulli(double prob) { return bernoulli_below(bernoulli_cut(prob)); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dsn
