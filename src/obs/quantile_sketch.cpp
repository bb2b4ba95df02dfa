#include "obs/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace vodbcast::obs {

SketchCore::SketchCore(Options options) : options_(options) {
  VB_EXPECTS(options_.relative_accuracy > 0.0 &&
             options_.relative_accuracy < 1.0);
  VB_EXPECTS(options_.max_buckets >= 2);
  gamma_ = (1.0 + options_.relative_accuracy) /
           (1.0 - options_.relative_accuracy);
  log_gamma_ = std::log(gamma_);
}

std::int32_t SketchCore::index_of(double sample) const noexcept {
  // sample in (gamma^(i-1), gamma^i] -> bucket i. ceil() puts an exact
  // power on its own boundary; the +/- noise of log() stays within the
  // accuracy budget.
  return static_cast<std::int32_t>(std::ceil(std::log(sample) / log_gamma_));
}

void SketchCore::observe(double sample) noexcept {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  if (sample <= kMinTrackable) {
    ++zero_count_;
    return;
  }
  // +inf and NaN have no log bucket; pin them to the top finite one so the
  // array never has to span an undefined index.
  add_to_bucket(index_of(std::isfinite(sample)
                             ? sample
                             : std::numeric_limits<double>::max()),
                1);
  if (nonzero_ > options_.max_buckets) {
    collapse_to_budget();
  }
}

std::size_t SketchCore::grow_to_cover(std::int32_t index) {
  if (counts_.empty()) {
    offset_ = index;
    counts_.resize(1);
    return 0;
  }
  const std::int64_t pos = index - offset_;
  if (pos >= 0) {
    counts_.resize(static_cast<std::size_t>(pos) + 1);
    return static_cast<std::size_t>(pos);
  }
  // Grow downward by at least half the current span, so a falling stream
  // reallocates O(log span) times, as upward growth does.
  const auto grow =
      std::max(static_cast<std::size_t>(-pos), counts_.size() / 2);
  counts_.insert(counts_.begin(), grow, 0);
  offset_ -= static_cast<std::int64_t>(grow);
  low_ += grow;
  return static_cast<std::size_t>(pos + static_cast<std::int64_t>(grow));
}

void SketchCore::collapse_to_budget() {
  // Fold the lowest non-zero bucket into the next one until within budget:
  // low-end resolution degrades first, tail quantiles stay exact to the
  // accuracy bound. With max_buckets >= 2 both entries always exist.
  while (nonzero_ > options_.max_buckets) {
    while (counts_[low_] == 0) {
      ++low_;
    }
    std::size_t next = low_ + 1;
    while (counts_[next] == 0) {
      ++next;
    }
    counts_[next] += counts_[low_];
    counts_[low_] = 0;
    low_ = next;
    --nonzero_;
    ++collapsed_;
  }
}

void SketchCore::merge_from(const SketchCore& other) {
  VB_EXPECTS(&other != this);
  if (options_.relative_accuracy != other.options_.relative_accuracy) {
    throw std::invalid_argument(
        "quantile sketch merge: relative accuracy mismatch (" +
        std::to_string(options_.relative_accuracy) + " vs " +
        std::to_string(other.options_.relative_accuracy) +
        "); the bucket grids do not line up");
  }
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
  for (std::size_t i = other.low_; i < other.counts_.size(); ++i) {
    if (other.counts_[i] != 0) {
      add_to_bucket(static_cast<std::int32_t>(other.offset_ +
                                              static_cast<std::int64_t>(i)),
                    other.counts_[i]);
    }
  }
  if (nonzero_ > options_.max_buckets) {
    collapse_to_budget();
  }
}

double SketchCore::quantile(double q) const {
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  // Rank of the q-th order statistic over count_ samples (0-based).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  if (rank < zero_count_) {
    return 0.0;
  }
  std::uint64_t cum = zero_count_;
  for (std::size_t i = low_; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > rank) {
      // Midpoint of (gamma^(i-1), gamma^i]: relative error <= a at either
      // edge. Clamped to the exact extremes, so a constant stream (or a
      // single sample) reads back exactly.
      const auto index = static_cast<std::int32_t>(
          offset_ + static_cast<std::int64_t>(i));
      return std::clamp(2.0 * std::pow(gamma_, index) / (gamma_ + 1.0), min_,
                        max_);
    }
  }
  return max_;  // unreachable unless counts desynced; clamp to the max
}

std::vector<std::pair<std::int32_t, std::uint64_t>> SketchCore::buckets()
    const {
  std::vector<std::pair<std::int32_t, std::uint64_t>> out;
  out.reserve(nonzero_);
  for (std::size_t i = low_; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      out.emplace_back(
          static_cast<std::int32_t>(offset_ + static_cast<std::int64_t>(i)),
          counts_[i]);
    }
  }
  return out;
}

void SketchCore::clear() {
  // Keeps the array's capacity for reuse; the next sample re-anchors it.
  counts_.clear();
  offset_ = 0;
  nonzero_ = 0;
  low_ = 0;
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  collapsed_ = 0;
}

void QuantileSketch::observe(double sample) noexcept {
  const std::scoped_lock lock(mutex_);
  core_.observe(sample);
}

void QuantileSketch::merge_from(const QuantileSketch& other) {
  VB_EXPECTS(&other != this);
  const std::scoped_lock lock(mutex_, other.mutex_);
  core_.merge_from(other.core_);
}

double QuantileSketch::quantile(double q) const {
  const std::scoped_lock lock(mutex_);
  return core_.quantile(q);
}

std::uint64_t QuantileSketch::count() const {
  const std::scoped_lock lock(mutex_);
  return core_.count();
}

double QuantileSketch::sum() const {
  const std::scoped_lock lock(mutex_);
  return core_.sum();
}

double QuantileSketch::min() const {
  const std::scoped_lock lock(mutex_);
  return core_.min();
}

double QuantileSketch::max() const {
  const std::scoped_lock lock(mutex_);
  return core_.max();
}

std::uint64_t QuantileSketch::zero_count() const {
  const std::scoped_lock lock(mutex_);
  return core_.zero_count();
}

std::size_t QuantileSketch::bucket_count() const {
  const std::scoped_lock lock(mutex_);
  return core_.bucket_count();
}

std::uint64_t QuantileSketch::collapsed() const {
  const std::scoped_lock lock(mutex_);
  return core_.collapsed();
}

std::size_t QuantileSketch::retained_bytes() const {
  const std::scoped_lock lock(mutex_);
  return core_.retained_bytes();
}

std::vector<std::pair<std::int32_t, std::uint64_t>> QuantileSketch::buckets()
    const {
  const std::scoped_lock lock(mutex_);
  return core_.buckets();
}

SketchCore QuantileSketch::core() const {
  const std::scoped_lock lock(mutex_);
  return core_;
}

void QuantileSketch::clear() {
  const std::scoped_lock lock(mutex_);
  core_.clear();
}

}  // namespace vodbcast::obs
