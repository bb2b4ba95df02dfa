// Metrics registry: named counters, gauges and quantile sketches cheap
// enough for simulation hot paths. Every distribution (waits, batch sizes,
// `*_ns` timings) is a QuantileSketch: unbounded range, 1% relative error,
// exact merges.
//
// Design constraints (mirroring production VoD servers, e.g. the
// performance-counter blocks of nginx-vod-module):
//   * counter and gauge updates are lock-free (relaxed atomics) and a
//     sketch observe takes only that sketch's mutex — safe from any thread;
//   * instrument handles are stable for the registry's lifetime, so hot
//     loops resolve a name once and then touch only the atomic;
//   * snapshots are lazily materialized on demand: nothing is aggregated
//     until snapshot()/to_json()/to_csv() is called;
//   * when no registry is wired up (the null-sink default) instrumented code
//     pays one pointer test and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/family.hpp"
#include "obs/quantile_sketch.hpp"

namespace vodbcast::obs {

/// Monotonic event count. Lock-free; relaxed ordering (metrics tolerate
/// being read mid-update).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (queue depth, peak rate). set() overwrites; add()
/// and max_of() update via CAS so concurrent writers never lose updates.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  /// Raises the gauge to `v` if larger (peak tracking).
  void max_of(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of every instrument, detached from the registry.
struct Snapshot {
  /// (key, value) pairs in the family's key order; empty for unlabeled
  /// instruments.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  struct SketchView {
    std::string name;
    Labels labels;
    /// The sketch's whole state, copied under its lock; the fields below
    /// are read from this copy, so they all describe one instant.
    SketchCore sketch;
    double relative_accuracy = 0.0;
    std::uint64_t zero_count = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t collapsed = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    /// sketch.quantile(q): the same rule as QuantileSketch::quantile.
    /// q in [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const {
      return sketch.quantile(q);
    }
  };

  struct CounterView {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeView {
    std::string name;
    Labels labels;
    double value = 0.0;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  /// Unlabeled sketches first, then family series in (name, label-tuple)
  /// order.
  std::vector<SketchView> sketches;
  /// Family counter/gauge series in (name, label-tuple) order.
  std::vector<CounterView> family_counters;
  std::vector<GaugeView> family_gauges;
};

/// Owns the instruments. Lookup/creation takes a mutex (cold path);
/// returned references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates. Names are conventionally dotted lowercase paths,
  /// e.g. "sim.clients_served" (see docs/OBSERVABILITY.md). A name is bound
  /// to one instrument kind for the registry's lifetime; re-registering it
  /// as another kind throws std::invalid_argument (two kinds under one name
  /// would emit duplicate series in exposition).
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `options` is used only on first creation; later calls with the same
  /// name return the existing sketch unchanged.
  [[nodiscard]] QuantileSketch& sketch(const std::string& name,
                                       QuantileSketch::Options options = {});

  /// Labeled families. `label_keys` / `max_series` (and sketch options)
  /// are used only on first creation; the cardinality-cap overflow of every
  /// family increments the registry's "obs.labels_dropped" counter.
  [[nodiscard]] Family<Counter>& counter_family(
      const std::string& name, std::vector<std::string> label_keys,
      std::size_t max_series = kDefaultMaxSeries);
  [[nodiscard]] Family<Gauge>& gauge_family(
      const std::string& name, std::vector<std::string> label_keys,
      std::size_t max_series = kDefaultMaxSeries);
  [[nodiscard]] Family<QuantileSketch>& sketch_family(
      const std::string& name, std::vector<std::string> label_keys,
      QuantileSketch::Options options = {},
      std::size_t max_series = kDefaultMaxSeries);

  [[nodiscard]] Snapshot snapshot() const;

  /// Folds another registry into this one — the shard-merge for parallel
  /// runs where each worker records into a private sink and the results are
  /// combined after the join. Semantics per kind: counters add; gauges take
  /// the maximum (every current gauge is a peak: peak rate, deepest queue);
  /// sketches add log-bucket-wise; families fold label-wise (per-series, by
  /// the same kind rules, subject to this registry's cardinality cap).
  /// Instruments new here are adopted with `other`'s shape. A
  /// sketch-accuracy mismatch throws std::invalid_argument naming the
  /// instrument. Merging in a fixed shard
  /// order yields identical registries at any thread count.
  void merge_from(const Registry& other);

  /// One JSON object: {"counters":{...},"gauges":{...},"sketches":{...}}.
  /// Family series flatten into their section under 'name{key=value,...}'
  /// keys.
  [[nodiscard]] std::string to_json() const;
  /// Flat CSV: kind,name,field,value — one row per scalar.
  [[nodiscard]] std::string to_csv() const;
  /// OpenMetrics text exposition (# TYPE/# HELP/# EOF, escaped labels,
  /// sketches as summaries: quantiles plus _sum/_count).
  /// Dotted names are sanitized to underscore form; # HELP preserves the
  /// original dotted name. Lintable by tools/metrics_check.
  [[nodiscard]] std::string to_openmetrics() const;

 private:
  enum class Kind : std::uint8_t {
    kCounter,
    kGauge,
    kSketch,
    kCounterFamily,
    kGaugeFamily,
    kSketchFamily,
  };
  /// Binds `name` to `kind`; throws std::invalid_argument on a kind clash.
  /// Requires mutex_ held.
  void claim(const std::string& name, Kind kind);
  /// Requires mutex_ held.
  [[nodiscard]] Counter& counter_locked(const std::string& name);

  mutable std::mutex mutex_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<QuantileSketch>> sketches_;
  std::map<std::string, std::unique_ptr<Family<Counter>>> counter_families_;
  std::map<std::string, std::unique_ptr<Family<Gauge>>> gauge_families_;
  std::map<std::string, std::unique_ptr<Family<QuantileSketch>>>
      sketch_families_;
};

}  // namespace vodbcast::obs
