#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

namespace vodbcast::util {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, DoubleMeanNearHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.next_double();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BoundedSamplingInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17U);
  }
}

TEST(RngTest, BoundedSamplingHitsAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.next_below(10));
  }
  EXPECT_EQ(seen.size(), 10U);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 2.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_exponential(rate);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(SplitMix64Test, MatchesReferenceSequence) {
  // Known-answer vectors from Vigna's reference splitmix64.c with seed 0.
  // Replication seeds (sim::replicate) are drawn from exactly this
  // stream, so these constants pin the cross-version determinism contract.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.next(), 0x06C45D188009454FULL);
}

TEST(SplitMix64Test, DeterministicPerSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va == c.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace vodbcast::util
