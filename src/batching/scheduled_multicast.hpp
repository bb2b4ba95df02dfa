// Scheduled-multicast server simulation.
//
// The paper assumes "some existing scheduled multicast scheme is used to
// handle the less popular videos"; this is that substrate. A pool of
// channels serves per-video batches: when a channel frees, the batching
// policy picks a queue and the whole batch shares one stream for the video's
// full duration. Optional reneging models subscribers abandoning after an
// exponentially-distributed patience, which is what guaranteed-latency
// periodic broadcast improves on.
#pragma once

#include <memory>

#include "batching/queue_policies.hpp"
#include "obs/sampler.hpp"
#include "obs/sink.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vodbcast::batching {

struct MulticastConfig {
  int channels = 10;
  core::Minutes video_length{120.0};
  core::Minutes horizon{2000.0};
  /// Mean patience before a waiting subscriber reneges; <= 0 disables
  /// reneging (everyone waits indefinitely).
  core::Minutes mean_patience{-1.0};
  std::uint64_t seed = 7;
  /// Sample cap for the report's wait/batch-size Distributions: 0 retains
  /// every sample exactly; a positive cap folds into a bounded quantile
  /// sketch past the cap (sim::Distribution::set_sample_cap).
  std::size_t stats_sample_cap = 0;
  /// Optional observability attachment (not owned): "batching.*" metrics,
  /// batch-fire / renege trace events, and event-queue instrumentation.
  obs::Sink* sink = nullptr;
  /// Optional time-series sampler (not owned). When set, the run registers
  /// "batching.queue_depth", "batching.busy_channels" and
  /// "batching.event_queue.pending" probes and advances the sampler as the
  /// event clock moves. Null costs one pointer test per event.
  obs::Sampler* sampler = nullptr;
};

struct MulticastReport {
  std::string policy;
  sim::Distribution wait_minutes;    ///< waits of served requests
  sim::Distribution batch_size;      ///< requests sharing each stream
  std::uint64_t served = 0;
  std::uint64_t reneged = 0;
  std::uint64_t streams_started = 0;
  double channel_utilization = 0.0;  ///< busy channel-minutes / capacity
};

/// Simulates the policy on a pre-generated request stream. Preconditions
/// (util::ContractViolation): arrivals in nondecreasing order, every video
/// id below `num_videos`. Requests arriving after config.horizon are
/// ignored. Throws std::invalid_argument when config.horizon is not
/// positive (or NaN).
[[nodiscard]] MulticastReport simulate_scheduled_multicast(
    const BatchingPolicy& policy, const std::vector<workload::Request>& requests,
    std::size_t num_videos, const MulticastConfig& config);

/// Records the span tree of one batch-served request: a session under
/// `parent` (0 = root) from `arrival` to `dispatch + playback_min`, with a
/// queue_wait child over [arrival, dispatch) and a playback child from
/// `dispatch` on `channel`. The session and queue_wait spans carry `wait`,
/// the playback span carries `playback_min`.
void record_served_session(obs::SpanTracer& spans, std::uint64_t parent,
                           double arrival, double dispatch,
                           double playback_min, std::uint64_t video,
                           std::uint64_t client, double wait,
                           std::int32_t channel);

}  // namespace vodbcast::batching
