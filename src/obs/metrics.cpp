#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace vodbcast::obs {

namespace {

constexpr const char* kLabelsDroppedName = "obs.labels_dropped";

// CAS update helper for atomic doubles: GCC's fetch_add on atomic<double>
// is fine in C++20 but a CAS loop keeps us portable to older libstdc++.
template <typename Fn>
void update_double(std::atomic<double>& target, Fn&& combine) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, combine(cur),
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  // JSON has no inf/nan literals; clamp to null.
  const std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

Snapshot::Labels make_labels(const std::vector<std::string>& keys,
                             const std::vector<std::string>& values) {
  Snapshot::Labels labels;
  labels.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    labels.emplace_back(keys[i], values[i]);
  }
  return labels;
}

/// `name{k=v,...}` — the flattened series key used by to_json / to_csv.
std::string series_key(const std::string& name,
                       const Snapshot::Labels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string key = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      key += ',';
    }
    key += labels[i].first + "=" + labels[i].second;
  }
  key += '}';
  return key;
}

Snapshot::SketchView make_sketch_view(const std::string& name,
                                      const QuantileSketch& s,
                                      Snapshot::Labels labels) {
  Snapshot::SketchView view;
  view.name = name;
  view.labels = std::move(labels);
  view.relative_accuracy = s.relative_accuracy();
  view.gamma = s.gamma();
  view.zero_count = s.zero_count();
  view.buckets = s.buckets();
  view.count = s.count();
  view.sum = s.sum();
  view.min = s.min();
  view.max = s.max();
  view.collapsed = s.collapsed();
  view.p50 = view.quantile(0.50);
  view.p95 = view.quantile(0.95);
  view.p99 = view.quantile(0.99);
  view.p999 = view.quantile(0.999);
  return view;
}

[[noreturn]] void rethrow_with_metric(const std::string& name,
                                      const std::invalid_argument& e) {
  throw std::invalid_argument("metric '" + name + "': " + e.what());
}

}  // namespace

void increment_drop_counter(Counter* counter) noexcept {
  if (counter != nullptr) {
    counter->add();
  }
}

void Gauge::add(double delta) noexcept {
  update_double(value_, [delta](double cur) { return cur + delta; });
}

void Gauge::max_of(double v) noexcept {
  update_double(value_, [v](double cur) { return std::max(cur, v); });
}

double Snapshot::SketchView::quantile(double q) const {
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count == 0) {
    return 0.0;
  }
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  if (rank < zero_count) {
    return 0.0;
  }
  std::uint64_t cum = zero_count;
  for (const auto& [index, n] : buckets) {
    cum += n;
    if (cum > rank) {
      return std::clamp(2.0 * std::pow(gamma, index) / (gamma + 1.0), min,
                        max);
    }
  }
  return max;
}

void Registry::claim(const std::string& name, Kind kind) {
  const auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw std::invalid_argument(
        "metric '" + name +
        "' is already registered as a different instrument kind");
  }
}

Counter& Registry::counter_locked(const std::string& name) {
  claim(name, Kind::kCounter);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  return counter_locked(name);
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  claim(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

QuantileSketch& Registry::sketch(const std::string& name,
                                 QuantileSketch::Options options) {
  const std::scoped_lock lock(mutex_);
  claim(name, Kind::kSketch);
  auto& slot = sketches_[name];
  if (slot == nullptr) {
    slot = std::make_unique<QuantileSketch>(options);
  }
  return *slot;
}

Family<Counter>& Registry::counter_family(const std::string& name,
                                          std::vector<std::string> label_keys,
                                          std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  claim(name, Kind::kCounterFamily);
  auto& slot = counter_families_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Family<Counter>>(
        std::move(label_keys), max_series,
        [] { return std::make_unique<Counter>(); },
        &counter_locked(kLabelsDroppedName));
  }
  return *slot;
}

Family<Gauge>& Registry::gauge_family(const std::string& name,
                                      std::vector<std::string> label_keys,
                                      std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  claim(name, Kind::kGaugeFamily);
  auto& slot = gauge_families_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Family<Gauge>>(
        std::move(label_keys), max_series,
        [] { return std::make_unique<Gauge>(); },
        &counter_locked(kLabelsDroppedName));
  }
  return *slot;
}

Family<QuantileSketch>& Registry::sketch_family(
    const std::string& name, std::vector<std::string> label_keys,
    QuantileSketch::Options options, std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  claim(name, Kind::kSketchFamily);
  auto& slot = sketch_families_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Family<QuantileSketch>>(
        std::move(label_keys), max_series,
        [options] { return std::make_unique<QuantileSketch>(options); },
        &counter_locked(kLabelsDroppedName));
  }
  return *slot;
}

void Registry::merge_from(const Registry& other) {
  VB_EXPECTS(&other != this);
  const std::scoped_lock lock(mutex_, other.mutex_);
  // Kind clashes surface before any state changes.
  for (const auto& [name, kind] : other.kinds_) {
    claim(name, kind);
  }
  for (const auto& [name, c] : other.counters_) {
    auto& slot = counters_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Counter>();
    }
    slot->add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    auto& slot = gauges_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Gauge>();
    }
    slot->max_of(g->value());
  }
  for (const auto& [name, s] : other.sketches_) {
    auto& slot = sketches_[name];
    if (slot == nullptr) {
      slot = std::make_unique<QuantileSketch>(s->options());
    }
    try {
      slot->merge_from(*s);
    } catch (const std::invalid_argument& e) {
      rethrow_with_metric(name, e);
    }
  }
  for (const auto& [name, f] : other.counter_families_) {
    auto& slot = counter_families_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Family<Counter>>(
          f->label_keys(), f->max_series(), f->factory(),
          &counter_locked(kLabelsDroppedName));
    }
    slot->merge_from(*f, [](Counter& dst, const Counter& src) {
      dst.add(src.value());
    });
  }
  for (const auto& [name, f] : other.gauge_families_) {
    auto& slot = gauge_families_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Family<Gauge>>(
          f->label_keys(), f->max_series(), f->factory(),
          &counter_locked(kLabelsDroppedName));
    }
    slot->merge_from(*f, [](Gauge& dst, const Gauge& src) {
      dst.max_of(src.value());
    });
  }
  for (const auto& [name, f] : other.sketch_families_) {
    auto& slot = sketch_families_[name];
    if (slot == nullptr) {
      slot = std::make_unique<Family<QuantileSketch>>(
          f->label_keys(), f->max_series(), f->factory(),
          &counter_locked(kLabelsDroppedName));
    }
    try {
      slot->merge_from(*f,
                       [](QuantileSketch& dst, const QuantileSketch& src) {
                         dst.merge_from(src);
                       });
    } catch (const std::invalid_argument& e) {
      rethrow_with_metric(name, e);
    }
  }
}

Snapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, s] : sketches_) {
    snap.sketches.push_back(make_sketch_view(name, *s, {}));
  }
  for (const auto& [name, f] : counter_families_) {
    f->for_each([&](const std::vector<std::string>& values,
                    const Counter& c) {
      Snapshot::CounterView view;
      view.name = name;
      view.labels = make_labels(f->label_keys(), values);
      view.value = c.value();
      snap.family_counters.push_back(std::move(view));
    });
  }
  for (const auto& [name, f] : gauge_families_) {
    f->for_each([&](const std::vector<std::string>& values, const Gauge& g) {
      Snapshot::GaugeView view;
      view.name = name;
      view.labels = make_labels(f->label_keys(), values);
      view.value = g.value();
      snap.family_gauges.push_back(std::move(view));
    });
  }
  for (const auto& [name, f] : sketch_families_) {
    f->for_each([&](const std::vector<std::string>& values,
                    const QuantileSketch& s) {
      snap.sketches.push_back(make_sketch_view(
          name, s, make_labels(f->label_keys(), values)));
    });
  }
  return snap;
}

std::string Registry::to_json() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << '"' << json_escape(name) << "\":" << value;
    first = false;
  }
  for (const auto& c : snap.family_counters) {
    os << (first ? "" : ",") << '"'
       << json_escape(series_key(c.name, c.labels)) << "\":" << c.value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "" : ",") << '"' << json_escape(name)
       << "\":" << json_number(value);
    first = false;
  }
  for (const auto& g : snap.family_gauges) {
    os << (first ? "" : ",") << '"'
       << json_escape(series_key(g.name, g.labels))
       << "\":" << json_number(g.value);
    first = false;
  }
  os << "},\"sketches\":{";
  for (std::size_t i = 0; i < snap.sketches.size(); ++i) {
    const auto& s = snap.sketches[i];
    os << (i ? "," : "") << '"' << json_escape(series_key(s.name, s.labels))
       << "\":{\"relative_accuracy\":" << json_number(s.relative_accuracy)
       << ",\"count\":" << s.count << ",\"sum\":" << json_number(s.sum)
       << ",\"min\":" << json_number(s.min) << ",\"max\":"
       << json_number(s.max) << ",\"zero_count\":" << s.zero_count
       << ",\"tracked_buckets\":" << s.buckets.size() << ",\"collapsed\":"
       << s.collapsed << ",\"p50\":" << json_number(s.p50) << ",\"p95\":"
       << json_number(s.p95) << ",\"p99\":" << json_number(s.p99)
       << ",\"p999\":" << json_number(s.p999) << '}';
  }
  os << "}}";
  return os.str();
}

std::string Registry::to_csv() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  util::CsvWriter csv(os, {"kind", "name", "field", "value"});
  for (const auto& [name, v] : snap.counters) {
    csv.row({"counter", name, "value", util::CsvWriter::cell(
        static_cast<unsigned long long>(v))});
  }
  for (const auto& c : snap.family_counters) {
    csv.row({"counter", series_key(c.name, c.labels), "value",
             util::CsvWriter::cell(static_cast<unsigned long long>(c.value))});
  }
  for (const auto& [name, v] : snap.gauges) {
    csv.row({"gauge", name, "value", util::CsvWriter::cell(v)});
  }
  for (const auto& g : snap.family_gauges) {
    csv.row({"gauge", series_key(g.name, g.labels), "value",
             util::CsvWriter::cell(g.value)});
  }
  for (const auto& s : snap.sketches) {
    const std::string key = series_key(s.name, s.labels);
    csv.row({"sketch", key, "count", util::CsvWriter::cell(
        static_cast<unsigned long long>(s.count))});
    csv.row({"sketch", key, "sum", util::CsvWriter::cell(s.sum)});
    csv.row({"sketch", key, "min", util::CsvWriter::cell(s.min)});
    csv.row({"sketch", key, "max", util::CsvWriter::cell(s.max)});
    csv.row({"sketch", key, "p50", util::CsvWriter::cell(s.p50)});
    csv.row({"sketch", key, "p95", util::CsvWriter::cell(s.p95)});
    csv.row({"sketch", key, "p99", util::CsvWriter::cell(s.p99)});
    csv.row({"sketch", key, "p999", util::CsvWriter::cell(s.p999)});
  }
  return os.str();
}

}  // namespace vodbcast::obs
