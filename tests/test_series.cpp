#include "series/broadcast_series.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "schemes/skyscraper.hpp"
#include "util/contracts.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::series {
namespace {

TEST(SkyscraperSeriesTest, MatchesPaperMaterializedSeries) {
  // Paper Section 3.2: [1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ...]
  const SkyscraperSeries s;
  const std::vector<std::uint64_t> expected{1, 2, 2, 5, 5, 12, 12, 25, 25, 52,
                                            52};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(s.element(static_cast<int>(i) + 1), expected[i])
        << "n = " << i + 1;
  }
}

TEST(SkyscraperSeriesTest, PaperStudyWidths) {
  // The paper studies W at the 2nd, 10th, 20th and 30th elements:
  // 2, 52, 1705 and 54612.
  const SkyscraperSeries s;
  EXPECT_EQ(s.element(2), 2U);
  EXPECT_EQ(s.element(10), 52U);
  EXPECT_EQ(s.element(20), 1705U);
  EXPECT_EQ(s.element(30), 54612U);
}

TEST(SkyscraperSeriesTest, RecurrenceHolds) {
  const SkyscraperSeries s;
  for (int n = 4; n <= 60; ++n) {
    const auto prev = s.element(n - 1);
    const auto cur = s.element(n);
    switch (n % 4) {
      case 0:
        EXPECT_EQ(cur, 2 * prev + 1) << "n = " << n;
        break;
      case 1:
      case 3:
        EXPECT_EQ(cur, prev) << "n = " << n;
        break;
      case 2:
        EXPECT_EQ(cur, 2 * prev + 2) << "n = " << n;
        break;
      default:
        break;
    }
  }
}

TEST(SkyscraperSeriesTest, ElementsComeInEqualPairsAfterFirst) {
  // Every size after the first appears exactly twice consecutively
  // (transmission groups of length 2).
  const SkyscraperSeries s;
  for (int n = 2; n <= 50; n += 2) {
    EXPECT_EQ(s.element(n), s.element(n + 1)) << "n = " << n;
    if (n + 2 <= 51) {
      EXPECT_NE(s.element(n + 1), s.element(n + 2)) << "n = " << n;
    }
  }
}

TEST(SkyscraperSeriesTest, GroupParityAlternates) {
  // Odd groups and even groups interleave (paper Section 3.3).
  const SkyscraperSeries s;
  for (int n = 2; n <= 60; n += 2) {
    const bool group_odd = s.element(n) % 2 == 1;
    const bool next_group_odd = s.element(n + 2) % 2 == 1;
    EXPECT_NE(group_odd, next_group_odd) << "group at n = " << n;
  }
}

TEST(SkyscraperSeriesTest, RejectsNonPositiveIndex) {
  const SkyscraperSeries s;
  EXPECT_THROW((void)s.element(0), util::ContractViolation);
  EXPECT_THROW((void)s.element(-3), util::ContractViolation);
}

TEST(BroadcastSeriesTest, PrefixAppliesWidthCap) {
  const SkyscraperSeries s;
  const auto capped = s.prefix(8, 5);
  const std::vector<std::uint64_t> expected{1, 2, 2, 5, 5, 5, 5, 5};
  EXPECT_EQ(capped, expected);
}

TEST(BroadcastSeriesTest, PrefixUncapped) {
  const SkyscraperSeries s;
  const auto values = s.prefix(6);
  const std::vector<std::uint64_t> expected{1, 2, 2, 5, 5, 12};
  EXPECT_EQ(values, expected);
}

TEST(BroadcastSeriesTest, PrefixSumMatchesPrefix) {
  const SkyscraperSeries s;
  for (int k = 1; k <= 20; ++k) {
    for (const std::uint64_t w : {std::uint64_t{2}, std::uint64_t{52},
                                  kUncapped}) {
      std::uint64_t direct = 0;
      for (const auto v : s.prefix(k, w)) {
        direct += v;
      }
      EXPECT_EQ(s.prefix_sum(k, w), direct) << "k=" << k << " w=" << w;
    }
  }
}

TEST(FastSeriesTest, PowersOfTwo) {
  const FastSeries s;
  EXPECT_EQ(s.element(1), 1U);
  EXPECT_EQ(s.element(2), 2U);
  EXPECT_EQ(s.element(10), 512U);
  EXPECT_EQ(s.element(63), 1ULL << 62);
  EXPECT_THROW((void)s.element(64), util::ContractViolation);
}

TEST(FlatSeriesTest, AllOnes) {
  const FlatSeries s;
  for (int n = 1; n <= 10; ++n) {
    EXPECT_EQ(s.element(n), 1U);
  }
  EXPECT_EQ(s.prefix_sum(7), 7U);
}

TEST(MakeSeriesTest, ResolvesKnownLaws) {
  EXPECT_EQ(make_series("skyscraper")->name(), "skyscraper");
  EXPECT_EQ(make_series("fast")->name(), "fast");
  EXPECT_EQ(make_series("flat")->name(), "flat");
}

TEST(MakeSeriesTest, RejectsUnknownLaw) {
  EXPECT_THROW((void)make_series("fibonacci"), util::ContractViolation);
}

TEST(SkyscraperHelpersTest, FirstIndexReaching) {
  EXPECT_EQ(skyscraper::first_index_reaching(1), 1);
  EXPECT_EQ(skyscraper::first_index_reaching(2), 2);
  EXPECT_EQ(skyscraper::first_index_reaching(3), 4);   // first f(n) >= 3 is 5
  EXPECT_EQ(skyscraper::first_index_reaching(52), 10);
  EXPECT_EQ(skyscraper::first_index_reaching(0), 0);
}

TEST(SkyscraperHelpersTest, OddGroupElement) {
  EXPECT_TRUE(skyscraper::is_odd_group_element(1));
  EXPECT_FALSE(skyscraper::is_odd_group_element(2));
  EXPECT_TRUE(skyscraper::is_odd_group_element(5));
  EXPECT_FALSE(skyscraper::is_odd_group_element(12));
}

class SkyscraperGrowthTest : public ::testing::TestWithParam<int> {};

TEST_P(SkyscraperGrowthTest, GrowthFactorStaysBelowFour) {
  // Between consecutive distinct sizes the series grows by a factor in
  // (2, 3]: 2A+1 or 2A+2. This keeps the "skyscraper" tall and thin.
  const SkyscraperSeries s;
  const int n = GetParam();
  const double ratio = static_cast<double>(s.element(n + 2)) /
                       static_cast<double>(s.element(n));
  EXPECT_GT(ratio, 2.0);
  EXPECT_LE(ratio, 3.0);
}

INSTANTIATE_TEST_SUITE_P(GrowthSweep, SkyscraperGrowthTest,
                         ::testing::Range(2, 40, 2));

// One instance shared by many pool workers, as a scheme is shared by a
// pooled bandwidth sweep: every worker must read the same values and
// (under TSan) no worker may write shared state. Each round starts from a
// fresh instance so first reads race one another.
TEST(SkyscraperSeriesTest, SharedInstanceIsSafeAcrossPoolWorkers) {
  constexpr int kLength = 90;
  const auto expected = SkyscraperSeries().prefix(kLength);
  util::TaskPool pool(8);
  for (int round = 0; round < 200; ++round) {
    const SkyscraperSeries shared;
    std::vector<std::vector<std::uint64_t>> out(16);
    util::parallel_for_each(&pool, out.size(), [&](std::size_t i) {
      out[i] = shared.prefix(kLength);
    });
    for (const auto& values : out) {
      ASSERT_EQ(values, expected) << "round " << round;
    }
  }
}

// The whole schemes layer on top: one SB scheme evaluated concurrently
// at every bandwidth matches a serial pass.
TEST(SkyscraperSeriesTest, SharedSchemeEvaluatesIdenticallyOnAPool) {
  const schemes::SkyscraperScheme shared(1705);
  constexpr std::size_t kPoints = 256;
  const auto input_at = [](std::size_t i) {
    return schemes::DesignInput{
        .server_bandwidth =
            core::MbitPerSec{60.0 + 2.5 * static_cast<double>(i)},
        .num_videos = 10,
        .video =
            core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
    };
  };
  std::vector<double> latency(kPoints, -1.0);
  util::TaskPool pool(8);
  util::parallel_for_each(&pool, kPoints, [&](std::size_t i) {
    const auto eval = shared.evaluate(input_at(i));
    latency[i] = eval.has_value() ? eval->metrics.access_latency.v : 0.0;
  });
  const schemes::SkyscraperScheme serial(1705);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto eval = serial.evaluate(input_at(i));
    EXPECT_EQ(latency[i], eval.has_value() ? eval->metrics.access_latency.v
                                           : 0.0)
        << "point " << i;
  }
}

// Past the last 64-bit value the recurrence overflows loudly.
TEST(SkyscraperSeriesTest, OverflowThrows) {
  const SkyscraperSeries s;
  int last = 1;
  while (true) {
    try {
      (void)s.element(last + 1);
    } catch (const util::ContractViolation&) {
      break;
    }
    ++last;
  }
  EXPECT_GT(s.element(last), std::uint64_t{1} << 62);
  EXPECT_THROW((void)s.element(last + 1), util::ContractViolation);
  EXPECT_THROW((void)s.element(last + 50), util::ContractViolation);
}

}  // namespace
}  // namespace vodbcast::series
