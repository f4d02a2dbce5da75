// Tests for the synthetic traffic patterns (§VII-A).
#include <gtest/gtest.h>

#include <map>

#include "dsn/common/error.hpp"
#include "dsn/sim/traffic.hpp"

namespace dsn {
namespace {

TEST(UniformTrafficTest, NeverSelfAndCoversAll) {
  UniformTraffic traffic(16);
  Rng rng(1);
  std::map<HostId, int> seen;
  for (int i = 0; i < 5000; ++i) {
    const HostId d = traffic.dest(3, rng);
    EXPECT_NE(d, 3u);
    EXPECT_LT(d, 16u);
    ++seen[d];
  }
  EXPECT_EQ(seen.size(), 15u);
  // Roughly uniform: each of 15 destinations ~333 hits.
  for (const auto& [host, count] : seen) {
    EXPECT_GT(count, 200) << host;
    EXPECT_LT(count, 500) << host;
  }
}

TEST(BitReversalTrafficTest, KnownValues) {
  BitReversalTraffic traffic(256);  // 8 bits
  Rng rng(1);
  EXPECT_EQ(traffic.dest(0b00000001, rng), 0b10000000u);
  EXPECT_EQ(traffic.dest(0b10000000, rng), 0b00000001u);
  EXPECT_EQ(traffic.dest(0, rng), 0u);
  EXPECT_EQ(traffic.dest(0b11110000, rng), 0b00001111u);
  EXPECT_EQ(traffic.dest(0b10000001, rng), 0b10000001u);  // palindrome
}

TEST(BitReversalTrafficTest, IsAnInvolution) {
  BitReversalTraffic traffic(256);
  Rng rng(1);
  for (HostId h = 0; h < 256; ++h) {
    EXPECT_EQ(traffic.dest(traffic.dest(h, rng), rng), h);
  }
}

TEST(BitReversalTrafficTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW(BitReversalTraffic(100), PreconditionError);
}

TEST(NeighboringTrafficTest, MostlyNeighbors) {
  NeighboringTraffic traffic(256);  // 16x16 array
  Rng rng(2);
  const HostId src = 5 * 16 + 5;  // interior node
  int local = 0;
  const int trials = 10'000;
  for (int i = 0; i < trials; ++i) {
    const HostId d = traffic.dest(src, rng);
    const int dx = std::abs(static_cast<int>(d % 16) - 5);
    const int dy = std::abs(static_cast<int>(d / 16) - 5);
    if (dx + dy == 1) ++local;
  }
  // 90% explicit locals plus a sliver of random picks landing on neighbors.
  EXPECT_NEAR(local / static_cast<double>(trials), 0.9, 0.02);
}

TEST(NeighboringTrafficTest, CornerNodesUseExistingNeighbors) {
  NeighboringTraffic traffic(256);
  Rng rng(3);
  int local = 0;
  const int trials = 10'000;
  for (int i = 0; i < trials; ++i) {
    const HostId d = traffic.dest(0, rng);  // corner of the 16x16 array
    ASSERT_LT(d, 256u);
    ASSERT_NE(d, 0u);
    if (d == 1 || d == 16) ++local;
  }
  // Every neighbor draw lands on one of the corner's two existing neighbors
  // (no wraparound, no off-grid id): 90 % plus the uniform picks hitting them.
  EXPECT_NEAR(local / static_cast<double>(trials), 0.9 + 0.1 * 2.0 / 255.0, 0.01);
}

TEST(NeighboringTrafficTest, RejectsNonSquare) {
  EXPECT_THROW(NeighboringTraffic(200), PreconditionError);
}

TEST(TransposeTrafficTest, KnownValues) {
  TransposeTraffic traffic(256);
  Rng rng(1);
  EXPECT_EQ(traffic.dest(1, rng), 16u);        // (1,0) -> (0,1)
  EXPECT_EQ(traffic.dest(16, rng), 1u);
  EXPECT_EQ(traffic.dest(0, rng), 0u);         // diagonal
  EXPECT_EQ(traffic.dest(17, rng), 17u);       // diagonal
}

TEST(ShuffleTrafficTest, RotatesLeft) {
  ShuffleTraffic traffic(8);  // 3 bits
  Rng rng(1);
  EXPECT_EQ(traffic.dest(0b001, rng), 0b010u);
  EXPECT_EQ(traffic.dest(0b100, rng), 0b001u);
  EXPECT_EQ(traffic.dest(0b101, rng), 0b011u);
}

TEST(HotspotTrafficTest, HotHostOverrepresented) {
  HotspotTraffic traffic(64, 7, 0.25);
  Rng rng(4);
  int hot = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (traffic.dest(3, rng) == 7u) ++hot;
  }
  // 25% explicit + ~1.2% of the uniform remainder.
  EXPECT_NEAR(hot / 10'000.0, 0.25 + 0.75 / 63, 0.02);
}

TEST(TrafficFactory, KnownNames) {
  EXPECT_STREQ(make_traffic("uniform", 64)->name(), "uniform");
  EXPECT_STREQ(make_traffic("bit-reversal", 64)->name(), "bit-reversal");
  EXPECT_STREQ(make_traffic("bitrev", 64)->name(), "bit-reversal");
  EXPECT_STREQ(make_traffic("neighboring", 64)->name(), "neighboring");
  EXPECT_STREQ(make_traffic("transpose", 64)->name(), "transpose");
  EXPECT_STREQ(make_traffic("shuffle", 64)->name(), "shuffle");
  EXPECT_STREQ(make_traffic("hotspot", 64)->name(), "hotspot");
  EXPECT_THROW(make_traffic("bogus", 64), PreconditionError);
}

}  // namespace
}  // namespace dsn
