#include "span_log.hpp"

#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, bool in_sum)
    : log_(log), index_(log.spans_.size()) {
  Span span;
  span.id = index_ + 1;
  span.parent = log.open_.empty() ? 0 : log.spans_[log.open_.back()].id;
  span.name = std::move(name);
  span.in_sum = in_sum;
  log.spans_.push_back(std::move(span));
  log.open_.push_back(index_);
  log.spans_[index_].start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end_ns = now_ns();
  log_.open_.pop_back();
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  // Spans close in LIFO order on one thread, so children never overlap and
  // their durations can simply be subtracted from the parent's.
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const auto duration = span.end_ns - span.start_ns;
    self[i] += duration;
    if (span.parent != 0) {
      self[span.parent - 1] -= duration;
    }
  }
  return self;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const auto self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double SpanLog::layer_sum_seconds() const {
  const auto self = self_ns();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0 && spans_[i].in_sum) {
      total += static_cast<double>(self[i]) * 1e-9;
    }
  }
  return total;
}

double SpanLog::seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return total;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write span file " + path);
  }
  for (const auto& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"in_sum\":%s}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 span.in_sum ? "true" : "false");
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot close span file " + path);
  }
}

}  // namespace perfbench
