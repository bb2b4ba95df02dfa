// Mergeable quantile sketch with a relative-error guarantee (DDSketch-style
// log-bucketed counts).
//
// Fixed-bin histograms need bounds chosen before the run and clamp every
// tail quantile to the last finite bound — the p99.9 of a distribution that
// outgrew its bounds is a lie. The sketch instead buckets samples by
// logarithm: bucket i holds values in (gamma^(i-1), gamma^i] with
// gamma = (1 + a) / (1 - a), so any reported quantile is within relative
// accuracy `a` of a true sample value, with no pre-chosen bounds.
//
// Contracts that the rest of obs relies on:
//   * deterministic — bucket indices are a pure function of the sample, and
//     iteration order is the sorted bucket index;
//   * mergeable — merge_from adds counts bucket-wise; merging the same
//     multiset of samples in any grouping yields identical bucket contents
//     (the shard-merge contract of Registry::merge_from);
//   * bounded — at most `max_buckets` tracked buckets. On overflow the two
//     lowest buckets collapse into one (the low end loses resolution first;
//     tails — the reason the sketch exists — keep full accuracy), and
//     collapsed() counts how many times that happened;
//   * non-negative domain — waits, gaps and durations are >= 0. Samples
//     below the minimum trackable value (including any negative input)
//     land in a dedicated zero bucket whose estimate is exactly 0;
//   * one owner, or any thread — SketchCore holds the state and every
//     algorithm over it with no lock: copyable, for one owner at a time
//     (sim::Distribution keeps one by value). QuantileSketch is a
//     SketchCore plus a mutex that every member takes, so registry
//     sketches stay safe to observe, merge and read from any thread.
//
// Storage: a dense array of counts indexed by (bucket index - offset),
// grown at either end as samples arrive, so an observe is one log, one
// array increment and no allocation once the range is covered. A running
// count of non-zero entries stands in for the tracked-bucket count, and a
// low-water cursor marks the lowest entry that can be non-zero, so a
// collapse never rescans the zeros it left behind. The array spans the
// observed index range, not the bucket budget: (ln(max) - ln(min)) / ln(gamma)
// entries of 8 bytes. At a = 0.01 the range [1e-9, 1e12] is ~2.4k entries
// (~19 KB); the whole finite double range above the floor is ~36.5k
// entries (~290 KB), the worst case. Non-finite samples count in the
// bucket of the largest finite double.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace vodbcast::obs {

/// The unlocked sketch: state, growth, collapse, merge and the one
/// quantile rule. Not thread-safe; copies are independent sketches.
class SketchCore {
 public:
  struct Options {
    /// Relative accuracy `a`: quantile estimates are within a factor
    /// [1 - a, 1 + a] of a true sample. Preconditions: 0 < a < 1.
    double relative_accuracy = 0.01;
    /// Bucket budget; on overflow the lowest buckets collapse.
    /// Preconditions: >= 2.
    std::size_t max_buckets = 512;
  };

  /// Values at or below this threshold count in the zero bucket.
  static constexpr double kMinTrackable = 1e-9;

  SketchCore() : SketchCore(Options{}) {}
  explicit SketchCore(Options options);

  void observe(double sample) noexcept;

  /// Folds `other` bucket-wise into this sketch, then re-applies the bucket
  /// budget. Throws std::invalid_argument when the relative accuracies
  /// differ (the bucket grids would not line up).
  void merge_from(const SketchCore& other);

  /// Quantile estimate for q in [0, 1]; 0 when empty. Within
  /// relative_accuracy() of a true sample value and inside the exact
  /// [min(), max()] (exact 0 for zero-bucket mass; collapsed low buckets
  /// degrade only the low quantiles).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept {  ///< 0 when empty
    return count_ == 0 ? 0.0 : min_;
  }
  [[nodiscard]] double max() const noexcept {  ///< 0 when empty
    return count_ == 0 ? 0.0 : max_;
  }
  [[nodiscard]] std::uint64_t zero_count() const noexcept {
    return zero_count_;
  }
  /// Number of tracked (non-zero) buckets, <= max_buckets.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return nonzero_; }
  /// Times the bucket budget forced a collapse of the lowest buckets.
  [[nodiscard]] std::uint64_t collapsed() const noexcept { return collapsed_; }
  /// Heap bytes held by the bucket array (its capacity, zeros included).
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] double relative_accuracy() const noexcept {
    return options_.relative_accuracy;
  }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Sorted (bucket index, count) pairs — the full mergeable state, used by
  /// the bit-identity tests.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const;

  void clear();

 private:
  [[nodiscard]] std::int32_t index_of(double sample) const noexcept;
  /// Adds `n` to bucket `index`, growing the array to cover it. Defined
  /// here so observe's fast path inlines it.
  void add_to_bucket(std::int32_t index, std::uint64_t n) {
    // An index below offset_ wraps to a huge position: one compare covers
    // both ends and the empty array.
    auto pos = static_cast<std::size_t>(index - offset_);
    if (pos >= counts_.size()) {
      pos = grow_to_cover(index);
    }
    auto& slot = counts_[pos];
    if (slot == 0) {
      ++nonzero_;
      low_ = std::min(low_, pos);
    }
    slot += n;
  }
  /// Grows the array to cover `index`; returns its position.
  std::size_t grow_to_cover(std::int32_t index);
  void collapse_to_budget();

  Options options_;
  double gamma_;
  double log_gamma_;
  std::vector<std::uint64_t> counts_;  ///< counts_[i] is bucket offset_ + i
  std::int64_t offset_ = 0;
  std::size_t nonzero_ = 0;  ///< non-zero entries of counts_
  std::size_t low_ = 0;      ///< counts_[i] == 0 for every i < low_
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t collapsed_ = 0;
};

/// A SketchCore behind a mutex: the any-thread sketch the metrics registry
/// hands out. Every member takes the lock and defers to the core.
class QuantileSketch {
 public:
  using Options = SketchCore::Options;
  static constexpr double kMinTrackable = SketchCore::kMinTrackable;

  QuantileSketch() : QuantileSketch(Options{}) {}
  explicit QuantileSketch(Options options) : core_(options) {}

  QuantileSketch(const QuantileSketch&) = delete;
  QuantileSketch& operator=(const QuantileSketch&) = delete;

  void observe(double sample) noexcept;

  /// SketchCore::merge_from under both sketches' locks.
  void merge_from(const QuantileSketch& other);

  /// SketchCore::quantile under the lock.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  [[nodiscard]] std::uint64_t zero_count() const;
  /// Number of tracked (non-zero) buckets, <= max_buckets.
  [[nodiscard]] std::size_t bucket_count() const;
  /// Times the bucket budget forced a collapse of the lowest buckets.
  [[nodiscard]] std::uint64_t collapsed() const;
  /// Heap bytes held by the bucket array (its capacity, zeros included).
  [[nodiscard]] std::size_t retained_bytes() const;

  // The options never change after construction, so these need no lock.
  [[nodiscard]] double relative_accuracy() const noexcept {
    return core_.relative_accuracy();
  }
  [[nodiscard]] double gamma() const noexcept { return core_.gamma(); }
  [[nodiscard]] const Options& options() const noexcept {
    return core_.options();
  }

  /// Sorted (bucket index, count) pairs — the full mergeable state, used by
  /// the bit-identity tests.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const;

  /// A copy of the whole state taken under one lock, so every statistic of
  /// the copy describes the same instant (metrics snapshots read this).
  [[nodiscard]] SketchCore core() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  SketchCore core_;
};

}  // namespace vodbcast::obs
