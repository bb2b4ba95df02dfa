// The one replication runner behind every replicated campaign:
// sim::simulate_replicated, ctrl::simulate_adaptive_replicated,
// metro::simulate_federation_replicated and `vodbcast hybrid --reps`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/sink.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::sim {

/// Runs `reps` independent replications of one campaign, calling
/// `run(seed_r, sink_r)` for each, and returns the results in replication
/// order. The replication contract:
///
///   * seeds: replication r runs with the (r+1)-th output of
///     util::SplitMix64(seed), all drawn before any replication starts, so
///     the schedule does not depend on execution order;
///   * slots: replication r writes only result slot r and its own state;
///     `pool` (null = serial) changes which thread computes a slot, never
///     where it lands (util::parallel_map);
///   * sinks: when `into` is set, replication r records into a private
///     obs::Sink with `into`'s trace and span capacities, and after the join
///     those sinks fold into `into` in replication order
///     (obs::Sink::merge_from). Without `into`, sink_r is null;
///   * merges: the caller folds the returned results in replication order on
///     its own thread, so floats accumulate in the same order.
///
/// Output is therefore bit-identical at any thread count. Throws
/// std::invalid_argument when reps == 0.
template <typename Run>
auto replicate(std::size_t reps, std::uint64_t seed, util::TaskPool* pool,
               obs::Sink* into, Run&& run)
    -> std::vector<std::invoke_result_t<Run&, std::uint64_t, obs::Sink*>> {
  using Result = std::invoke_result_t<Run&, std::uint64_t, obs::Sink*>;
  if (reps == 0) {
    throw std::invalid_argument("a replicated run needs reps >= 1");
  }
  util::SplitMix64 seed_stream(seed);
  std::vector<std::uint64_t> seeds(reps);
  for (auto& s : seeds) {
    s = seed_stream.next();
  }
  std::vector<std::unique_ptr<obs::Sink>> sinks(reps);
  if (into != nullptr) {
    for (auto& sink : sinks) {
      sink = std::make_unique<obs::Sink>(into->trace.capacity(),
                                         into->spans.capacity());
    }
  }
  auto results = util::parallel_map<Result>(
      pool, reps, [&](std::size_t r) { return run(seeds[r], sinks[r].get()); });
  if (into != nullptr) {
    for (const auto& sink : sinks) {
      into->merge_from(*sink);
    }
  }
  return results;
}

}  // namespace vodbcast::sim
