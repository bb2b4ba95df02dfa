#include "batching/scheduled_multicast.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "sim/event_queue.hpp"
#include "util/contracts.hpp"

namespace vodbcast::batching {

namespace {

/// Drops pending requests whose patience expired before `now`.
/// `renege_by_title` (empty when unobserved) holds one pre-resolved counter
/// per video id. `span_client` numbers the abandoned sessions' spans; it is
/// only touched when a sink is attached.
std::uint64_t clean_expired(WaitQueues& queues, double now, obs::Sink* sink,
                            const std::vector<obs::Counter*>& renege_by_title,
                            std::uint64_t* span_client) {
  std::uint64_t reneged = 0;
  for (std::size_t video = 0; video < queues.size(); ++video) {
    auto& queue = queues[video];
    if (sink != nullptr) {
      // An abandoned session is all queue_wait: the span tree is the
      // session with one queue_wait child covering arrival → renege.
      for (const auto& r : queue) {
        if (r.renege_at.v >= now) {
          continue;
        }
        const auto client = ++*span_client;
        const double waited = r.renege_at.v - r.arrival.v;
        const auto session = sink->spans.record(obs::Span{
            .start_min = r.arrival.v,
            .end_min = r.renege_at.v,
            .phase = obs::SpanPhase::kSession,
            .channel = 0,
            .video = video,
            .client = client,
            .value = waited,
            .label = {},
        });
        sink->spans.record(obs::Span{
            .parent = session,
            .start_min = r.arrival.v,
            .end_min = r.renege_at.v,
            .phase = obs::SpanPhase::kQueueWait,
            .channel = 0,
            .video = video,
            .client = client,
            .value = waited,
            .label = {},
        });
      }
    }
    const auto kept = std::remove_if(
        queue.begin(), queue.end(), [now](const PendingRequest& r) {
          return r.renege_at.v < now;
        });
    const auto lost = static_cast<std::uint64_t>(queue.end() - kept);
    if (lost > 0) {
      if (!renege_by_title.empty()) {
        renege_by_title[video]->add(lost);
      }
      if (sink != nullptr) {
        sink->trace.record(obs::TraceEvent{
            .sim_time_min = now,
            .kind = obs::EventKind::kRenege,
            .channel = 0,
            .video = video,
            .client = 0,
            .value = static_cast<double>(lost),
        });
      }
    }
    reneged += lost;
    queue.erase(kept, queue.end());
  }
  return reneged;
}

std::size_t total_pending(const WaitQueues& queues) {
  std::size_t total = 0;
  for (const auto& queue : queues) {
    total += queue.size();
  }
  return total;
}

/// The per-run simulation state, bundled so event callbacks capture one
/// pointer (plus a channel index) and stay inside the event engine's
/// inline-capture budget — the hot path then never boxes a callback.
struct MulticastSim {
  const BatchingPolicy& policy;
  const MulticastConfig& config;
  MulticastReport& report;
  WaitQueues& queues;
  sim::EventQueue& events;
  obs::ProbeScope& probes;
  util::Rng& rng;
  obs::Sink* sink;
  obs::Counter* batches_counter;
  obs::Counter* served_counter;
  obs::Counter* reneged_counter;
  obs::Gauge* depth_peak;
  obs::QuantileSketch* dispatch_ns;
  obs::QuantileSketch* batch_sizes;
  /// Pre-resolved per-title instruments (empty when no sink): one slot per
  /// video id so the dispatch loop never does a label lookup.
  std::vector<obs::QuantileSketch*> wait_by_title;
  std::vector<obs::Counter*> renege_by_title;
  int free_channels;
  /// Client ordinal for span emission (sink-attached runs only).
  std::uint64_t next_span_client = 0;
  double busy_minutes = 0.0;
  /// Per-channel accounting under lowest-free-index assignment — the
  /// deterministic stand-in for "which physical channel carried the batch".
  std::vector<char> channel_busy;
  std::vector<double> channel_busy_minutes;

  /// Drops expired waiters and keeps the report and metrics in step.
  void clean(double now) {
    const auto expired = clean_expired(queues, now, sink, renege_by_title,
                                       &next_span_client);
    report.reneged += expired;
    if (reneged_counter != nullptr) {
      reneged_counter->add(expired);
    }
  }

  /// Serves one batch if a channel and a non-empty queue are available.
  void try_dispatch() {
    const obs::ScopedTimer timer(dispatch_ns);
    if (free_channels == 0) {
      return;
    }
    const double now = events.now();
    clean(now);
    const auto video = policy.pick(queues);
    if (!video.has_value()) {
      return;
    }
    auto& queue = queues[*video];
    VB_ASSERT(!queue.empty());
    // Lowest free channel index carries this stream (resolved before the
    // serve loop so the batch's playback spans can name their channel).
    const auto channel = static_cast<std::size_t>(
        std::find(channel_busy.begin(), channel_busy.end(), 0) -
        channel_busy.begin());
    VB_ASSERT(channel < channel_busy.size());
    obs::QuantileSketch* wait_sketch =
        wait_by_title.empty() ? nullptr : wait_by_title[*video];
    for (const auto& r : queue) {
      const double wait = now - r.arrival.v;
      report.wait_minutes.add(wait);
      if (wait_sketch != nullptr) {
        wait_sketch->observe(wait);
      }
      if (sink != nullptr) {
        // The playback span names the assigned channel: the cross-channel
        // edge the chrome export draws as a flow arrow.
        record_served_session(sink->spans, 0, r.arrival.v, now,
                              config.video_length.v, *video,
                              ++next_span_client, wait,
                              static_cast<std::int32_t>(channel));
      }
    }
    const auto batch = queue.size();
    report.batch_size.add(static_cast<double>(batch));
    report.served += batch;
    queue.clear();
    ++report.streams_started;
    --free_channels;
    busy_minutes += config.video_length.v;
    channel_busy[channel] = 1;
    channel_busy_minutes[channel] += config.video_length.v;
    if (sink != nullptr) {
      batches_counter->add();
      served_counter->add(batch);
      batch_sizes->observe(static_cast<double>(batch));
      sink->trace.record(obs::TraceEvent{
          .sim_time_min = now,
          .kind = obs::EventKind::kBatchFire,
          .channel = config.channels - free_channels,
          .video = *video,
          .client = 0,
          .value = static_cast<double>(batch),
      });
    }
    events.schedule(now + config.video_length.v, [this, channel] {
      ++free_channels;
      channel_busy[channel] = 0;
      try_dispatch();
    });
  }

  void arrival(const workload::Request& request) {
    probes.advance(request.arrival.v);
    PendingRequest pending{.arrival = request.arrival,
                           .renege_at = core::Minutes{1e300}};
    if (config.mean_patience.v > 0.0) {
      pending.renege_at =
          request.arrival +
          core::Minutes{rng.next_exponential(1.0 / config.mean_patience.v)};
    }
    queues[request.video].push_back(pending);
    if (depth_peak != nullptr) {
      depth_peak->max_of(static_cast<double>(total_pending(queues)));
    }
    try_dispatch();
  }
};

}  // namespace

void record_served_session(obs::SpanTracer& spans, std::uint64_t parent,
                           double arrival, double dispatch,
                           double playback_min, std::uint64_t video,
                           std::uint64_t client, double wait,
                           std::int32_t channel) {
  const double end = dispatch + playback_min;
  obs::Span span{
      .parent = parent,
      .start_min = arrival,
      .end_min = end,
      .phase = obs::SpanPhase::kSession,
      .channel = 0,
      .video = video,
      .client = client,
      .value = wait,
      .label = {},
  };
  span.parent = spans.record(span);
  span.end_min = dispatch;
  span.phase = obs::SpanPhase::kQueueWait;
  spans.record(span);
  span.start_min = dispatch;
  span.end_min = end;
  span.phase = obs::SpanPhase::kPlayback;
  span.channel = channel;
  span.value = playback_min;
  spans.record(span);
}

MulticastReport simulate_scheduled_multicast(
    const BatchingPolicy& policy,
    const std::vector<workload::Request>& requests, std::size_t num_videos,
    const MulticastConfig& config) {
  VB_EXPECTS(config.channels >= 1);
  VB_EXPECTS(config.video_length.v > 0.0);
  VB_EXPECTS(num_videos >= 1);
  if (!(config.horizon.v > 0.0)) {
    throw std::invalid_argument(
        "scheduled multicast horizon must be positive, got " +
        std::to_string(config.horizon.v) + " min");
  }
  // The run walks `requests` with a cursor, so check the stream up front:
  // in range, and in nondecreasing arrival order.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    VB_EXPECTS(requests[i].video < num_videos);
    VB_EXPECTS_MSG(i == 0 || requests[i - 1].arrival.v <= requests[i].arrival.v,
                   "requests must be in nondecreasing arrival order");
  }

  MulticastReport report;
  report.policy = policy.name();
  report.wait_minutes.set_sample_cap(config.stats_sample_cap);
  report.batch_size.set_sample_cap(config.stats_sample_cap);

  obs::Sink* sink = config.sink;
  obs::Counter* batches_counter = nullptr;
  obs::Counter* served_counter = nullptr;
  obs::Counter* reneged_counter = nullptr;
  obs::Gauge* depth_peak = nullptr;
  obs::QuantileSketch* dispatch_ns = nullptr;
  obs::QuantileSketch* batch_sizes = nullptr;
  std::vector<obs::QuantileSketch*> wait_by_title;
  std::vector<obs::Counter*> renege_by_title;
  if (sink != nullptr) {
    batches_counter = &sink->metrics.counter("batching.streams_started");
    served_counter = &sink->metrics.counter("batching.served");
    reneged_counter = &sink->metrics.counter("batching.reneged");
    depth_peak = &sink->metrics.gauge("batching.queue_depth_peak");
    dispatch_ns = &sink->metrics.sketch("batching.dispatch_ns");
    batch_sizes = &sink->metrics.sketch("batching.batch_size");
    // Per-title series resolved once; the dispatch/clean hot paths index by
    // video id. Sized to the catalog so no title folds into overflow.
    auto& wait_family = sink->metrics.sketch_family(
        "batching.client.wait", {"title"}, {}, num_videos + 1);
    auto& renege_family = sink->metrics.counter_family(
        "batching.client.reneged", {"title"}, num_videos + 1);
    wait_by_title.resize(num_videos);
    renege_by_title.resize(num_videos);
    for (std::size_t video = 0; video < num_videos; ++video) {
      wait_by_title[video] = &wait_family.with_ids({video});
      renege_by_title[video] = &renege_family.with_ids({video});
    }
  }

  WaitQueues queues(num_videos);
  util::Rng rng(config.seed);

  sim::EventQueue events;
  events.attach_sink(sink);

  // Time-series probes over the simulation locals; the ProbeScope
  // unregisters them before the locals die. Advanced at each arrival (the
  // only points where the clock moves past sampler ticks in bulk).
  obs::ProbeScope probes(config.sampler);

  MulticastSim state{
      .policy = policy,
      .config = config,
      .report = report,
      .queues = queues,
      .events = events,
      .probes = probes,
      .rng = rng,
      .sink = sink,
      .batches_counter = batches_counter,
      .served_counter = served_counter,
      .reneged_counter = reneged_counter,
      .depth_peak = depth_peak,
      .dispatch_ns = dispatch_ns,
      .batch_sizes = batch_sizes,
      .wait_by_title = std::move(wait_by_title),
      .renege_by_title = std::move(renege_by_title),
      .free_channels = config.channels,
      .channel_busy =
          std::vector<char>(static_cast<std::size_t>(config.channels), 0),
      .channel_busy_minutes = std::vector<double>(
          static_cast<std::size_t>(config.channels), 0.0),
  };

  probes.add("batching.queue_depth", [&queues] {
    return static_cast<double>(total_pending(queues));
  });
  probes.add("batching.busy_channels", [&config, &state] {
    return static_cast<double>(config.channels - state.free_channels);
  });
  probes.add("batching.event_queue.pending",
             [&events] { return static_cast<double>(events.pending()); });

  std::size_t cursor = 0;
  events.run_until(
      config.horizon.v,
      [&] {
        return cursor < requests.size() ? requests[cursor].arrival.v
                                        : sim::EventQueue::kNoArrival;
      },
      [&] { state.arrival(requests[cursor++]); });
  probes.advance(config.horizon.v);

  // Anything still queued at the horizon: expired entries reneged, the rest
  // simply remain unserved (neither served nor reneged).
  state.clean(config.horizon.v);
  const auto unserved = total_pending(queues);
  if (unserved > 0) {
    obs::logf(obs::LogLevel::kWarn,
              "scheduled_multicast: %zu requests still queued at horizon "
              "%.1f min (policy=%s)",
              unserved, config.horizon.v, report.policy.c_str());
  }

  report.channel_utilization =
      state.busy_minutes / (config.channels * config.horizon.v);
  if (sink != nullptr) {
    auto& util_family = sink->metrics.gauge_family(
        "batching.channel.utilization", {"channel"},
        static_cast<std::size_t>(config.channels) + 1);
    for (std::size_t channel = 0; channel < state.channel_busy_minutes.size();
         ++channel) {
      util_family.with_ids({channel}).max_of(
          state.channel_busy_minutes[channel] / config.horizon.v);
    }
  }
  obs::logf(obs::LogLevel::kDebug,
            "scheduled_multicast: policy=%s served=%llu reneged=%llu "
            "streams=%llu utilization=%.3f",
            report.policy.c_str(),
            static_cast<unsigned long long>(report.served),
            static_cast<unsigned long long>(report.reneged),
            static_cast<unsigned long long>(report.streams_started),
            report.channel_utilization);
  return report;
}

}  // namespace vodbcast::batching
