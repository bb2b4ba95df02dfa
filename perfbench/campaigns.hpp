// The four benchmark campaigns, each driven through the library's public
// entry points: sim::simulate (sb_metro, sb_faults_observed),
// ctrl::simulate_adaptive (hybrid_adaptive) and metro::simulate_federation
// (metro_federation).
//
// Constructing a campaign is its set-up (scheme design, fault-plan
// generation, topology, task pool); run() is the campaign call the
// end-to-end metrics time; check() tests the outputs against references the
// engine under test does not compute; replay() is the traced run's layer
// breakdown, which calls each layer's public functions over the campaign's
// inputs inside spans of the benchmark's own SpanLog.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "span_log.hpp"

namespace perfbench {

/// Tally of output checks; a failed check keeps its name and the values.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail);
  /// Every sketch quantile lies within [min, max], widened by the quantile
  /// sketch's 1% relative error.
  void quantiles_in_range(const std::string& name,
                          const vodbcast::sim::Distribution& dist);

  [[nodiscard]] std::size_t run() const noexcept { return run_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::size_t run_ = 0;
  std::vector<std::string> failures_;
};

/// Per-layer metric values of one traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

class Campaign {
 public:
  virtual ~Campaign() = default;
  Campaign() = default;
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;
  Campaign(Campaign&&) = delete;
  Campaign& operator=(Campaign&&) = delete;

  /// The campaign call. Returns the simulated arrivals it finished.
  virtual std::uint64_t run() = 0;
  /// Checks the last run's outputs.
  virtual void check(Checks& checks) const = 0;
  /// Replays each layer the campaign uses over the last run's inputs, one
  /// span per layer, and stores the layers' work counters in `out`.
  /// Returns campaign seconds attributed to a layer without a span of its
  /// own (the obs sink's overhead, measured as a difference of two runs).
  virtual double replay(SpanLog& log, LayerMetrics& out) = 0;
  /// Task-pool workers the campaign call runs on (1 = the calling thread).
  [[nodiscard]] virtual unsigned workers() const { return 1; }
};

/// Sets up `workload` for `seed`; null for an unknown workload name.
[[nodiscard]] std::unique_ptr<Campaign> make_campaign(
    const std::string& workload, std::uint64_t seed);

/// Span and counter names of every layer, in report order. A traced run
/// reports each; a layer the workload does not use gets an empty span and
/// zero counters.
struct LayerNames {
  std::vector<std::string> spans;
  std::vector<std::string> counters;
};
[[nodiscard]] const LayerNames& layer_names();

}  // namespace perfbench
