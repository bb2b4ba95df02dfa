// The benchmark's own span recorder.
//
// Spans are kept in memory while a traced run executes and written out as
// JSONL when it ends. Each span has a name, a start and end on
// std::chrono::steady_clock, and the id of the span that encloses it. Layer
// times are self times on this clock: a span's duration minus the time its
// child spans cover. The program's own `*_ns` histograms are never read.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic_ns reads, so a parent process can time our start-up).
std::int64_t now_ns();

class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// True when the span is one step of the campaign's cost breakdown;
    /// re-measurements (a second campaign, an export) are kept out of the
    /// layer sum so the residual is not double counted.
    bool in_sum = true;
  };

  /// Opens a span and makes it the parent of spans opened until it closes.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, bool in_sum = true);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Seconds each span name spent outside its child spans, summed over
  /// every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Self seconds of every in-sum span below the roots.
  [[nodiscard]] double layer_sum_seconds() const;
  /// Summed duration of every span called `name`.
  [[nodiscard]] double seconds(const std::string& name) const;

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the open spans, innermost last
};

}  // namespace perfbench
