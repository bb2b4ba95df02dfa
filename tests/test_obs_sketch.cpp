#include "obs/quantile_sketch.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::obs {
namespace {

TEST(QuantileSketchTest, EmptySketchReportsZeros) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
  EXPECT_EQ(s.bucket_count(), 0U);
}

TEST(QuantileSketchTest, RejectsBadOptions) {
  EXPECT_THROW(QuantileSketch({.relative_accuracy = 0.0}),
               util::ContractViolation);
  EXPECT_THROW(QuantileSketch({.relative_accuracy = 1.0}),
               util::ContractViolation);
  EXPECT_THROW(
      QuantileSketch({.relative_accuracy = 0.01, .max_buckets = 1}),
      util::ContractViolation);
}

// Known-answer test: with a = 1/3, gamma ~= 2, buckets are roughly
// (2^(i-1), 2^i]. Samples sit well inside their buckets (a boundary value
// like exactly 2.0 would be at the mercy of the last bit of log()).
TEST(QuantileSketchTest, KnownAnswerBucketIndices) {
  QuantileSketch s({.relative_accuracy = 1.0 / 3.0});
  EXPECT_NEAR(s.gamma(), 2.0, 1e-12);
  s.observe(1.0);  // log(1) = 0 exactly  -> index 0
  s.observe(1.4);  // (1, 2]              -> index 1
  s.observe(3.0);  // (2, 4]              -> index 2
  s.observe(3.5);  // (2, 4]              -> index 2
  s.observe(5.0);  // (4, 8]              -> index 3
  s.observe(0.2);  // (1/8, 1/4]          -> index -2
  const std::vector<std::pair<std::int32_t, std::uint64_t>> expected = {
      {-2, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 1}};
  EXPECT_EQ(s.buckets(), expected);
  EXPECT_EQ(s.count(), 6U);
  EXPECT_NEAR(s.sum(), 14.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 0.2);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(QuantileSketchTest, SingleSampleAllQuantilesAgree) {
  QuantileSketch s;
  s.observe(42.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 42.0, 42.0 * s.relative_accuracy());
  }
}

TEST(QuantileSketchTest, QuantilesStayInsideTheExactRange) {
  // A bucket midpoint can sit above every sample in its bucket; the exact
  // extremes bound the estimate, so constant streams read back exactly.
  QuantileSketch constant;
  for (int i = 0; i < 100; ++i) {
    constant.observe(30.0);
  }
  QuantileSketch one_run;
  one_run.observe(4.98e9);  // one 4.98 s timing in ns
  for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(constant.quantile(q), 30.0) << "q=" << q;
    EXPECT_EQ(one_run.quantile(q), 4.98e9) << "q=" << q;
  }
  util::Rng rng(17);
  QuantileSketch spread;
  for (int i = 0; i < 1000; ++i) {
    spread.observe(std::exp(rng.next_double() * 10.0 - 2.0));
  }
  for (int k = 0; k <= 1000; ++k) {
    const double est = spread.quantile(static_cast<double>(k) / 1000.0);
    EXPECT_GE(est, spread.min());
    EXPECT_LE(est, spread.max());
  }
}

TEST(QuantileSketchTest, SnapshotQuantilesStayInsideTheExactRange) {
  Registry registry;
  auto& s = registry.sketch("wait");
  for (int i = 0; i < 100; ++i) {
    s.observe(30.0);
  }
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.sketches.size(), 1U);
  const auto& view = snap.sketches[0];
  EXPECT_EQ(view.p50, 30.0);
  EXPECT_EQ(view.p95, 30.0);
  EXPECT_EQ(view.p99, 30.0);
  EXPECT_EQ(view.p999, 30.0);
  EXPECT_EQ(view.quantile(1.0), 30.0);
}

TEST(QuantileSketchTest, ZeroAndNegativeSamplesLandInZeroBucket) {
  QuantileSketch s;
  s.observe(0.0);
  s.observe(-3.0);
  s.observe(1e-12);
  EXPECT_EQ(s.zero_count(), 3U);
  EXPECT_EQ(s.bucket_count(), 0U);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);  // all mass is exactly zero
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(QuantileSketchTest, RelativeErrorBoundAcrossSeeds) {
  // Property test: for random (log-uniform) samples, every reported
  // quantile stays within the advertised relative accuracy of the true
  // order statistic.
  for (const std::uint64_t seed : {1ULL, 7ULL, 1997ULL, 424242ULL}) {
    util::Rng rng(seed);
    QuantileSketch s({.relative_accuracy = 0.02});
    std::vector<double> samples;
    for (int i = 0; i < 4000; ++i) {
      // Spread over ~6 decades so no fixed-bin grid could cover it.
      const double v = std::exp(rng.next_double() * 14.0 - 7.0);
      samples.push_back(v);
      s.observe(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1));
      const double truth = samples[rank];
      const double est = s.quantile(q);
      EXPECT_LE(std::abs(est - truth), truth * 0.02 * 1.0001)
          << "seed=" << seed << " q=" << q;
    }
  }
}

TEST(QuantileSketchTest, MergeIsCommutative) {
  // merge(a, b) and merge(b, a) must hold identical bucket state — the
  // shard-merge bit-identity contract.
  util::Rng rng(99);
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch ab;
  QuantileSketch ba;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.next_exponential(0.1);
    if (i % 2 == 0) {
      a.observe(v);
    } else {
      b.observe(v);
    }
  }
  ab.merge_from(a);
  ab.merge_from(b);
  ba.merge_from(b);
  ba.merge_from(a);
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.zero_count(), ba.zero_count());
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q));
  }
}

TEST(QuantileSketchTest, MergeMatchesSingleSketchOverSameSamples) {
  // Any grouping of the same multiset of samples yields identical state.
  util::Rng rng(3);
  QuantileSketch whole;
  QuantileSketch part1;
  QuantileSketch part2;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100.0;
    whole.observe(v);
    (i < 300 ? part1 : part2).observe(v);
  }
  part1.merge_from(part2);
  EXPECT_EQ(whole.buckets(), part1.buckets());
  EXPECT_EQ(whole.count(), part1.count());
  EXPECT_DOUBLE_EQ(whole.sum(), part1.sum());
}

TEST(QuantileSketchTest, MergeRejectsMismatchedAccuracy) {
  QuantileSketch a({.relative_accuracy = 0.01});
  QuantileSketch b({.relative_accuracy = 0.02});
  try {
    a.merge_from(b);
    FAIL() << "mismatched accuracy must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_THAT(e.what(), testing::HasSubstr("relative accuracy mismatch"));
  }
}

TEST(QuantileSketchTest, BucketBudgetCollapsesLowestFirst) {
  QuantileSketch s({.relative_accuracy = 0.01, .max_buckets = 8});
  // 32 distinct decades -> far more than 8 buckets before collapsing.
  for (int i = 0; i < 32; ++i) {
    s.observe(std::pow(1.5, i));
  }
  EXPECT_LE(s.bucket_count(), 8U);
  EXPECT_GT(s.collapsed(), 0U);
  EXPECT_EQ(s.count(), 32U);
  // Tail quantiles keep full accuracy: the max sample is 1.5^31.
  const double top = std::pow(1.5, 31);
  EXPECT_NEAR(s.quantile(1.0), top, top * 0.011);
  // Total mass is preserved across collapses.
  std::uint64_t total = 0;
  for (const auto& [index, n] : s.buckets()) {
    total += n;
  }
  EXPECT_EQ(total, 32U);
}

TEST(QuantileSketchTest, ClearResetsEverything) {
  QuantileSketch s;
  s.observe(5.0);
  s.observe(0.0);
  s.clear();
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.zero_count(), 0U);
  EXPECT_EQ(s.bucket_count(), 0U);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}


TEST(QuantileSketchTest, NonFiniteSamplesPinToTopFiniteBucket) {
  QuantileSketch s;
  QuantileSketch top;
  top.observe(std::numeric_limits<double>::max());
  s.observe(std::numeric_limits<double>::infinity());
  s.observe(std::numeric_limits<double>::quiet_NaN());
  s.observe(-std::numeric_limits<double>::infinity());  // zero bucket
  ASSERT_EQ(top.buckets().size(), 1U);
  const std::vector<std::pair<std::int32_t, std::uint64_t>> expected = {
      {top.buckets()[0].first, 2}};
  EXPECT_EQ(s.buckets(), expected);
  EXPECT_EQ(s.zero_count(), 1U);
  EXPECT_EQ(s.count(), 3U);
}

TEST(QuantileSketchTest, RetainedBytesTrackTheDenseSpan) {
  QuantileSketch s;
  EXPECT_EQ(s.retained_bytes(), 0U);
  s.observe(0.0);  // the zero bucket needs no array storage
  EXPECT_EQ(s.retained_bytes(), 0U);
  // The documented worst case of the metro-scale range: [1e-9, 1e12] at
  // a = 0.01 spans ~2.4k entries; growth slack may at most double that.
  util::Rng rng(5);
  double lo = std::numeric_limits<double>::max();
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(
        std::log(1e-9) + rng.next_double() * (std::log(1e12) - std::log(1e-9)));
    lo = std::min(lo, v);
    s.observe(v);
  }
  // The array spans every index observed, including the low end that
  // collapses have since emptied.
  const auto index = [&s](double v) {
    return std::ceil(std::log(v) / std::log(s.gamma()));
  };
  const auto span =
      static_cast<std::size_t>(index(s.max()) - index(lo) + 1);
  EXPECT_GT(span, 2000U);
  EXPECT_LT(span, 2500U);
  EXPECT_GE(s.retained_bytes(), span * sizeof(std::uint64_t));
  EXPECT_LE(s.retained_bytes(), 2 * 2500 * sizeof(std::uint64_t));
  // clear() keeps the storage for reuse.
  const std::size_t before = s.retained_bytes();
  s.clear();
  EXPECT_EQ(s.retained_bytes(), before);
  s.observe(3.0);
  EXPECT_EQ(s.retained_bytes(), before);
}

TEST(QuantileSketchTest, SharedRegistrySketchCountsEverySampleFromFourThreads) {
  // The any-thread contract: concurrent observes on one registry sketch
  // lose nothing. Integer samples keep the sum exact in any interleaving,
  // and the value range stays inside the bucket budget so no collapse
  // makes the buckets order-dependent.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Registry registry;
  auto& shared = registry.sketch("shared.wait");
  QuantileSketch serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.observe(static_cast<double>(1 + (i * 7 + t) % 1000));
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (int i = 0; i < kPerThread; ++i) {
        shared.observe(static_cast<double>(1 + (i * 7 + t) % 1000));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(shared.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(shared.collapsed(), 0U);
  EXPECT_EQ(shared.buckets(), serial.buckets());
  EXPECT_EQ(shared.sum(), serial.sum());
  EXPECT_EQ(shared.min(), 1.0);
  EXPECT_EQ(shared.max(), 1000.0);
}

// ---------------------------------------------------------------------------
// Differential oracle: the original std::map-backed algorithm, kept here as
// the reference the production storage layout must match bit for bit —
// bucket contents, collapse order and count, and every quantile.
class MapReferenceSketch {
 public:
  explicit MapReferenceSketch(QuantileSketch::Options options)
      : options_(options),
        gamma_((1.0 + options.relative_accuracy) /
               (1.0 - options.relative_accuracy)),
        log_gamma_(std::log(gamma_)) {}

  void observe(double sample) {
    if (count_ == 0) {
      min_ = sample;
      max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    if (sample <= QuantileSketch::kMinTrackable) {
      ++zero_count_;
      return;
    }
    ++buckets_[static_cast<std::int32_t>(
        std::ceil(std::log(sample) / log_gamma_))];
    collapse_to_budget();
  }

  void merge_from(const MapReferenceSketch& other) {
    if (other.count_ > 0) {
      if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
      } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
      }
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zero_count_ += other.zero_count_;
    collapsed_ += other.collapsed_;
    for (const auto& [index, n] : other.buckets_) {
      buckets_[index] += n;
    }
    collapse_to_budget();
  }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    if (rank < zero_count_) {
      return 0.0;
    }
    std::uint64_t cum = zero_count_;
    for (const auto& [index, n] : buckets_) {
      cum += n;
      if (cum > rank) {
        return std::clamp(2.0 * std::pow(gamma_, index) / (gamma_ + 1.0),
                          min_, max_);
      }
    }
    return max_;
  }

  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const {
    return {buckets_.begin(), buckets_.end()};
  }

  void clear() {
    buckets_.clear();
    zero_count_ = 0;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    collapsed_ = 0;
  }

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t collapsed_ = 0;

 private:
  void collapse_to_budget() {
    while (buckets_.size() > options_.max_buckets) {
      auto lowest = buckets_.begin();
      std::next(lowest)->second += lowest->second;
      buckets_.erase(lowest);
      ++collapsed_;
    }
  }

  QuantileSketch::Options options_;
  double gamma_;
  double log_gamma_;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

/// One production sketch and its reference, driven in lockstep.
struct Twin {
  explicit Twin(QuantileSketch::Options options)
      : sketch(options), reference(options) {}

  void observe(double sample) {
    sketch.observe(sample);
    reference.observe(sample);
  }
  void merge_from(const Twin& other) {
    sketch.merge_from(other.sketch);
    reference.merge_from(other.reference);
  }
  void clear() {
    sketch.clear();
    reference.clear();
  }

  QuantileSketch sketch;
  MapReferenceSketch reference;
};

/// Bit-equality of every observable, including quantiles over a q grid
/// dense enough to land in every bucket of a 512-bucket sketch.
void expect_identical(const Twin& t, const std::string& what) {
  SCOPED_TRACE(what);
  const auto buckets = t.sketch.buckets();
  ASSERT_EQ(buckets, t.reference.buckets());
  EXPECT_EQ(t.sketch.bucket_count(), buckets.size());
  EXPECT_EQ(t.sketch.collapsed(), t.reference.collapsed_);
  EXPECT_EQ(t.sketch.zero_count(), t.reference.zero_count_);
  EXPECT_EQ(t.sketch.count(), t.reference.count_);
  // Bit equality, not approximate: the fold order must not change.
  EXPECT_EQ(t.sketch.sum(), t.reference.sum_);
  EXPECT_EQ(t.sketch.min(), t.reference.count_ == 0 ? 0.0 : t.reference.min_);
  EXPECT_EQ(t.sketch.max(), t.reference.count_ == 0 ? 0.0 : t.reference.max_);
  for (int k = 0; k <= 2048; ++k) {
    const double q = static_cast<double>(k) / 2048.0;
    ASSERT_EQ(t.sketch.quantile(q), t.reference.quantile(q)) << "q=" << q;
  }
  for (const double q : {0.999, 0.9999, 1e-6}) {
    ASSERT_EQ(t.sketch.quantile(q), t.reference.quantile(q)) << "q=" << q;
  }
}

/// Log-uniform over [1e-9, 1e12] — every bucket the default grid can
/// reach between the zero-bucket floor and terabyte-scale values.
double wide_sample(util::Rng& rng) {
  return std::exp(std::log(1e-9) +
                  rng.next_double() * (std::log(1e12) - std::log(1e-9)));
}

/// Mostly wide samples, salted with exact zeros, negatives, sub-floor
/// positives and exact powers of gamma (bucket boundaries).
double mixed_sample(util::Rng& rng, double gamma) {
  switch (rng.next_below(10)) {
    case 0:
      return 0.0;
    case 1:
      return -wide_sample(rng);
    case 2:
      return 1e-12 * rng.next_double();
    case 3:
      return std::pow(gamma, static_cast<double>(rng.next_below(200)) - 100.0);
    default:
      return wide_sample(rng);
  }
}

const std::vector<QuantileSketch::Options>& differential_grid() {
  static const std::vector<QuantileSketch::Options> grid = {
      {.relative_accuracy = 0.01, .max_buckets = 2},
      {.relative_accuracy = 0.01, .max_buckets = 8},
      {.relative_accuracy = 0.01, .max_buckets = 512},
      {.relative_accuracy = 0.05, .max_buckets = 8},
      {.relative_accuracy = 0.05, .max_buckets = 512},
      {.relative_accuracy = 1.0 / 3.0, .max_buckets = 512},
  };
  return grid;
}

std::string label(const QuantileSketch::Options& o, std::uint64_t seed) {
  return "a=" + std::to_string(o.relative_accuracy) +
         " max_buckets=" + std::to_string(o.max_buckets) +
         " seed=" + std::to_string(seed);
}

TEST(QuantileSketchDifferentialTest, SeededStreamsMatchMapReference) {
  for (const auto& options : differential_grid()) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 20261017ULL}) {
      util::Rng rng(seed);
      Twin t(options);
      const double gamma = t.sketch.gamma();
      for (int i = 0; i < 20000; ++i) {
        t.observe(mixed_sample(rng, gamma));
        if (i % 4999 == 0) {
          expect_identical(t, label(options, seed) + " i=" +
                                  std::to_string(i));
        }
      }
      expect_identical(t, label(options, seed));
    }
  }
}

TEST(QuantileSketchDifferentialTest, MonotoneStreamsMatchMapReference) {
  // Rising and falling sweeps: the bucket range grows at one end only,
  // and a falling sweep keeps landing below the lowest tracked bucket.
  for (const auto& options : differential_grid()) {
    Twin rising(options);
    Twin falling(options);
    for (int i = 0; i <= 3000; ++i) {
      rising.observe(1e-9 * std::pow(1.017, i));
      falling.observe(1e12 * std::pow(1.017, -i));
    }
    expect_identical(rising, label(options, 0) + " rising");
    expect_identical(falling, label(options, 0) + " falling");
  }
}

TEST(QuantileSketchDifferentialTest, SamplesBelowFloorAfterCollapse) {
  // Once collapses have raised the lowest tracked bucket, new samples far
  // below it open a fresh lowest bucket — which is then the next to fold.
  for (const std::size_t budget : {2U, 8U, 512U}) {
    const QuantileSketch::Options options{.relative_accuracy = 0.01,
                                          .max_buckets = budget};
    Twin t(options);
    for (int i = 0; i < 4000; ++i) {
      t.observe(std::pow(1.02, i % 1200));
    }
    ASSERT_GT(t.sketch.collapsed(), 0U);
    expect_identical(t, label(options, 0) + " after collapse");
    util::Rng rng(budget);
    for (int i = 0; i < 3000; ++i) {
      t.observe(1e-8 * (1.0 + rng.next_double()));  // below every bucket
      t.observe(1e6 * (1.0 + rng.next_double()));   // and above
      if (i % 3 == 0) {
        t.observe(0.0);
      }
    }
    expect_identical(t, label(options, 0) + " below floor");
  }
}

TEST(QuantileSketchDifferentialTest, MergeGroupingsMatchMapReference) {
  // The same sample stream split into parts and merged back in several
  // shapes: left fold, right fold, a balanced tree and a fold into an
  // already-populated sketch. Each grouping is compared against the
  // reference driven through the identical grouping.
  for (const auto& options : differential_grid()) {
    for (const std::size_t parts : {2U, 5U, 16U}) {
      util::Rng rng(parts * 7 + options.max_buckets);
      std::vector<std::unique_ptr<Twin>> shards;
      for (std::size_t p = 0; p < parts; ++p) {
        shards.push_back(std::make_unique<Twin>(options));
      }
      const double gamma = shards[0]->sketch.gamma();
      for (int i = 0; i < 6000; ++i) {
        // Shards see disjoint value ranges half of the time, so merges
        // must grow the target at both ends.
        auto& shard = *shards[rng.next_below(parts)];
        shard.observe(i % 2 == 0 ? mixed_sample(rng, gamma)
                                 : std::pow(10.0, static_cast<double>(
                                                      rng.next_below(20)) -
                                                      9.0));
      }
      const std::string base = label(options, parts);

      Twin left(options);
      for (const auto& s : shards) {
        left.merge_from(*s);
      }
      expect_identical(left, base + " left fold");

      Twin right(options);
      for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
        right.merge_from(**it);
      }
      expect_identical(right, base + " right fold");

      // Balanced tree: pairwise merges into fresh sketches, level by level.
      std::vector<std::unique_ptr<Twin>> level;
      for (const auto& s : shards) {
        auto copy = std::make_unique<Twin>(options);
        copy->merge_from(*s);
        level.push_back(std::move(copy));
      }
      while (level.size() > 1) {
        std::vector<std::unique_ptr<Twin>> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
          if (i + 1 < level.size()) {
            level[i]->merge_from(*level[i + 1]);
          }
          next.push_back(std::move(level[i]));
        }
        level = std::move(next);
      }
      expect_identical(*level[0], base + " tree");

      // Into a sketch that already holds its own samples.
      Twin populated(options);
      for (int i = 0; i < 500; ++i) {
        populated.observe(wide_sample(rng));
      }
      for (const auto& s : shards) {
        populated.merge_from(*s);
      }
      expect_identical(populated, base + " into populated");
    }
  }
}

TEST(QuantileSketchDifferentialTest, ClearThenReuseMatchesMapReference) {
  for (const auto& options : differential_grid()) {
    util::Rng rng(options.max_buckets);
    Twin t(options);
    const double gamma = t.sketch.gamma();
    for (int round = 0; round < 4; ++round) {
      // Each round lives in a different value range, so reuse must cope
      // with storage shaped by the previous round.
      const double scale = std::pow(1e3, round - 1);
      for (int i = 0; i < 3000; ++i) {
        t.observe(i % 7 == 0 ? mixed_sample(rng, gamma)
                             : scale * (0.5 + rng.next_double()));
      }
      expect_identical(t, label(options, 0) + " round " +
                              std::to_string(round));
      t.clear();
      expect_identical(t, label(options, 0) + " cleared " +
                              std::to_string(round));
      Twin other(options);
      other.observe(scale);
      t.merge_from(other);  // a merge into a cleared sketch
      expect_identical(t, label(options, 0) + " merged after clear " +
                              std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace vodbcast::obs
