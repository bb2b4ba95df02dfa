// RAII profiling hooks. A ScopedTimer reads the steady clock only when a
// sketch is attached; with a null target the constructor and destructor
// collapse to a pointer test, keeping release hot loops unperturbed.
#pragma once

#include <chrono>

#include "obs/quantile_sketch.hpp"

namespace vodbcast::obs {

/// Records the scope's wall time, in nanoseconds, into a QuantileSketch,
/// whose unbounded range keeps a multi-second run and a sub-microsecond
/// lookup each within the sketch's relative accuracy.
///
///   obs::ScopedTimer timer(
///       sink ? &sink->metrics.sketch("sim.simulate_ns") : nullptr);
class ScopedTimer {
 public:
  explicit ScopedTimer(QuantileSketch* target) noexcept : target_(target) {
    if (target_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (target_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      target_->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }

 private:
  QuantileSketch* target_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace vodbcast::obs
