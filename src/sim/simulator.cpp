#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "client/plan_cache.hpp"
#include "client/reception_plan.hpp"
#include "fault/injector.hpp"
#include "obs/log.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_sweep.hpp"
#include "sim/replicate.hpp"
#include "obs/timer.hpp"
#include "schemes/skyscraper.hpp"
#include "util/contracts.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::sim {

namespace {

/// One run's fault instruments. Each is looked up on its first use and
/// cached, so the per-hit path does no by-name lookup; looking them up
/// before the run would export empty fault series for a plan that never
/// hits.
class FaultInstruments {
 public:
  explicit FaultInstruments(obs::Registry& metrics) : metrics_(metrics) {}

  obs::Counter& hits(fault::EpisodeKind kind) {
    auto& slot = hits_[static_cast<std::size_t>(kind)];
    if (slot == nullptr) {
      if (hits_family_ == nullptr) {
        hits_family_ = &metrics_.counter_family("fault.hits", {"kind"});
      }
      slot = &hits_family_->with_ids({static_cast<std::uint64_t>(kind)});
    }
    return *slot;
  }
  obs::Counter& repairs() {
    if (repairs_ == nullptr) {
      repairs_ = &metrics_.counter("fault.repairs");
    }
    return *repairs_;
  }
  obs::Counter& degraded() {
    if (degraded_ == nullptr) {
      degraded_ = &metrics_.counter("fault.degraded");
    }
    return *degraded_;
  }
  obs::QuantileSketch& repair_penalty() {
    if (repair_penalty_ == nullptr) {
      repair_penalty_ = &metrics_.sketch("fault.repair_penalty_min");
    }
    return *repair_penalty_;
  }

 private:
  obs::Registry& metrics_;
  obs::Family<obs::Counter>* hits_family_ = nullptr;
  /// Indexed by EpisodeKind; kServerRestart is the last kind.
  std::array<obs::Counter*,
             static_cast<std::size_t>(fault::EpisodeKind::kServerRestart) + 1>
      hits_{};
  obs::Counter* repairs_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::QuantileSketch* repair_penalty_ = nullptr;
};

/// Traces the first broadcast slots of every stream so a trace viewer shows
/// the channel layout alongside the client activity. Capped per stream: the
/// schedule is periodic, so a handful of periods carries the full pattern.
void trace_channel_slots(obs::Sink& sink, const channel::ChannelPlan& plan,
                         core::Minutes horizon) {
  constexpr int kSlotsPerStream = 16;
  for (const auto& stream : plan.streams()) {
    double start = stream.phase.v;
    for (int i = 0; i < kSlotsPerStream && start < horizon.v; ++i) {
      sink.trace.record(obs::TraceEvent{
          .sim_time_min = start,
          .kind = obs::EventKind::kChannelSlotStart,
          .channel = stream.logical_channel,
          .video = stream.video,
          .client = 0,
          .value = stream.transmission.v,
      });
      start += stream.period.v;
    }
  }
}

/// One served client's reception plan as sink records: per download, a
/// start and an end trace event plus a segment_download span hanging off the
/// client's session span (channel = segment index, so the chrome export
/// draws each download on its segment track with a flow arrow from the
/// session). Download i owns trace ordinals first_event + 2i and
/// first_event + 2i + 1 and span ordinal first_span + i.
struct ReceptionRecords {
  client::PlanView plan;
  double d1 = 0.0;
  core::VideoId video = 0;
  std::uint64_t client = 0;
  std::uint64_t session_span = 0;
  std::uint64_t first_event = 0;
  std::uint64_t first_span = 0;
};

/// Writes the positions of `block` the sink's rings still retain.
void fill_reception(obs::Sink& sink, const ReceptionRecords& block) {
  for (std::size_t i = 0; i < block.plan.download_count(); ++i) {
    const std::uint64_t event = block.first_event + 2 * i;
    const std::uint64_t span = block.first_span + i;
    if (!sink.trace.retained(event + 1) && !sink.spans.retained(span)) {
      continue;
    }
    const auto d = block.plan.download(i);
    const double start_min = static_cast<double>(d.start) * block.d1;
    const double length_min = static_cast<double>(d.length) * block.d1;
    if (sink.trace.retained(event)) {
      sink.trace.fill(event, obs::TraceEvent{
                                 .sim_time_min = start_min,
                                 .kind = obs::EventKind::kSegmentDownloadStart,
                                 .channel = d.segment,
                                 .video = block.video,
                                 .client = block.client,
                                 .value = length_min,
                             });
    }
    if (sink.trace.retained(event + 1)) {
      sink.trace.fill(event + 1, obs::TraceEvent{
                                     .sim_time_min = start_min + length_min,
                                     .kind = obs::EventKind::kSegmentDownloadEnd,
                                     .channel = d.segment,
                                     .video = block.video,
                                     .client = block.client,
                                     .value = 0.0,
                                 });
    }
    if (sink.spans.retained(span)) {
      sink.spans.fill(span, obs::Span{
                                .parent = block.session_span,
                                .start_min = start_min,
                                .end_min = start_min + length_min,
                                .phase = obs::SpanPhase::kSegmentDownload,
                                .channel = d.segment,
                                .video = block.video,
                                .client = block.client,
                                .value = length_min,
                                .label = {},
                            });
    }
  }
}

/// Reception records a run has claimed but not yet written, oldest first.
/// A view served from an enabled PlanCache lives as long as the cache, so
/// its block waits here and is written when the run ends; whatever the rings
/// overwrite in the meantime is never built. Any other view dies at the next
/// plan lookup, so its block is written at once. Blocks whose positions have all
/// left both rings are dropped before each push, which bounds the queue to
/// about a ring's worth of clients.
class PendingReceptions {
 public:
  explicit PendingReceptions(obs::Sink* sink) : sink_(sink) {}
  PendingReceptions(const PendingReceptions&) = delete;
  PendingReceptions& operator=(const PendingReceptions&) = delete;
  /// Writes every pending block on any exit from the run, an exception
  /// included, so no claimed placeholder reaches a reader of the rings.
  ~PendingReceptions() {
    for (const auto& block : blocks_) {
      fill_reception(*sink_, block);
    }
  }

  /// Claims the ring positions of `block`'s records; `defer` keeps the
  /// block for the end of the run instead of writing it now.
  void claim(ReceptionRecords block, bool defer) {
    const std::size_t downloads = block.plan.download_count();
    obs::Sink& sink = *sink_;
    block.first_event = sink.trace.reserve(2 * downloads);
    // The block owns no span position until the span claim succeeds, so a
    // write on the way out of a failed claim skips the spans.
    block.first_span = sink.spans.recorded();
    try {
      block.first_span = sink.spans.reserve(downloads);
      if (defer) {
        while (!blocks_.empty() && overwritten(blocks_.front())) {
          blocks_.pop_front();
        }
        blocks_.push_back(block);
        return;
      }
    } catch (...) {
      fill_reception(sink, block);
      throw;
    }
    fill_reception(sink, block);
  }

 private:
  [[nodiscard]] bool overwritten(const ReceptionRecords& block) const {
    const std::uint64_t downloads = block.plan.download_count();
    return !sink_->trace.retained(block.first_event + 2 * downloads - 1) &&
           !sink_->spans.retained(block.first_span + downloads - 1);
  }

  obs::Sink* sink_;
  std::deque<ReceptionRecords> blocks_;
};

}  // namespace

SimulationReport simulate(const schemes::BroadcastScheme& scheme,
                          const schemes::DesignInput& input,
                          const SimulationConfig& config) {
  // Caller-facing: a zero, negative or NaN horizon would report an empty
  // run as if it had succeeded.
  if (!(config.horizon.v > 0.0)) {
    throw std::invalid_argument("simulate horizon must be positive, got " +
                                std::to_string(config.horizon.v) + " min");
  }
  const auto design = scheme.design(input);
  VB_EXPECTS_MSG(design.has_value(), "scheme infeasible at this bandwidth");

  obs::Sink* sink = config.sink;
  obs::ScopedTimer run_timer(
      sink != nullptr ? &sink->metrics.sketch("sim.simulate_ns") : nullptr);

  BroadcastServer server(scheme.plan(input, *design));

  SimulationReport report;
  report.scheme = scheme.name();
  report.peak_server_rate = server.plan().peak_aggregate_rate();
  report.latency_minutes.set_sample_cap(config.stats_sample_cap);
  report.buffer_peak_mbits.set_sample_cap(config.stats_sample_cap);
  report.fault_penalty_minutes.set_sample_cap(config.stats_sample_cap);

  if (sink != nullptr) {
    obs::logf(obs::LogLevel::kDebug,
              "simulate: scheme=%s horizon=%.1fmin rate=%.2f/min",
              report.scheme.c_str(), config.horizon.v,
              config.arrivals_per_minute);
    // max_of, not set: several runs may share one sink (bench sweeps), and
    // a "peak" gauge should survive a later, smaller run.
    sink->metrics.gauge("sim.peak_server_rate_mbps")
        .max_of(report.peak_server_rate.v);
    trace_channel_slots(*sink, server.plan(), config.horizon);
    // Per-channel duty cycle of the periodic schedule: each stream occupies
    // its logical channel for transmission/period of the time, and
    // subchannels of one channel add up.
    auto& util_family = sink->metrics.gauge_family(
        "sim.channel.utilization", {"channel"},
        server.plan().streams().size() + 1);
    std::map<int, double> duty;
    for (const auto& stream : server.plan().streams()) {
      duty[stream.logical_channel] += stream.transmission.v / stream.period.v;
    }
    for (const auto& [channel, utilization] : duty) {
      util_family.with_ids({static_cast<std::uint64_t>(channel)})
          .max_of(std::min(utilization, 1.0));
    }
    if (config.injector != nullptr && !config.injector->plan().empty()) {
      fault::trace_plan(*sink, config.injector->plan());
    }
  }

  // The simulated population requests only the M broadcast videos; within
  // them the paper's Zipf skew still applies (rank 1 is hottest).
  const auto popularity = workload::zipf_probabilities(
      static_cast<std::size_t>(input.num_videos));
  workload::RequestGenerator generator(popularity,
                                       config.arrivals_per_minute,
                                       util::Rng(config.seed));

  // For SB clients we run the exact reception plan; resolve the layout once.
  const auto* sb = dynamic_cast<const schemes::SkyscraperScheme*>(&scheme);
  std::optional<series::SegmentLayout> layout;
  if (sb != nullptr && config.plan_clients) {
    layout.emplace(sb->layout(input, *design));
  }
  // Phase-keyed plan cache: one canonical plan per arrival phase, every
  // other arrival served as a shifted view. Private to this run, so the
  // replication bit-identity contract is untouched.
  std::optional<client::PlanCache> cache;
  if (layout.has_value() && config.plan_cache) {
    cache.emplace(*layout);
  }
  // The per-client fault sweep, indexed once per run (never per canonical
  // plan, which would grow with the cache).
  std::optional<FaultSweep> fault_sweep;
  if (layout.has_value() && config.injector != nullptr &&
      !config.injector->plan().empty()) {
    fault_sweep.emplace(*layout, config.injector->plan());
  }
  // Declared after the cache, so the blocks it still holds when the run
  // ends are written while the cache's views are alive.
  PendingReceptions pending_receptions(sink);
  const bool defer_receptions = cache.has_value() && cache->enabled();

  // Time-series probes read simulation locals; the ProbeScope unregisters
  // them before those locals die. last_buffer_peak_units tracks the most
  // recent planned client's peak occupancy — a utilization-style series the
  // aggregate distribution cannot show.
  double last_buffer_peak_units = 0.0;
  obs::ProbeScope probes(config.sampler);
  probes.add("sim.clients_served", [&report] {
    return static_cast<double>(report.clients_served);
  });
  probes.add("sim.jitter_events", [&report] {
    return static_cast<double>(report.jitter_events);
  });
  if (layout.has_value()) {
    probes.add("client.last_buffer_peak_units",
               [&last_buffer_peak_units] { return last_buffer_peak_units; });
  }

  // Instrument handles resolved once, outside the per-client loop.
  obs::Counter* clients_counter = nullptr;
  obs::Counter* jitter_counter = nullptr;
  obs::QuantileSketch* plan_ns = nullptr;
  obs::QuantileSketch* plan_cache_hit_ns = nullptr;
  obs::QuantileSketch* wait_sketch = nullptr;
  // Per-title wait sketches, indexed by video id. The family is sized to
  // the catalog so no title folds into overflow; handles resolve here,
  // once, and the arrival hot path only touches the sketch.
  std::vector<obs::QuantileSketch*> title_wait;
  std::optional<FaultInstruments> fault_metrics;
  if (sink != nullptr) {
    fault_metrics.emplace(sink->metrics);
    clients_counter = &sink->metrics.counter("sim.clients_served");
    jitter_counter = &sink->metrics.counter("sim.jitter_events");
    wait_sketch = &sink->metrics.sketch("sim.tune_wait_sketch_min");
    auto& wait_family = sink->metrics.sketch_family(
        "sb.client.wait", {"title"}, {},
        static_cast<std::size_t>(input.num_videos) + 1);
    // Video ids are 0-based Zipf ranks (0 = hottest).
    title_wait.resize(static_cast<std::size_t>(input.num_videos), nullptr);
    for (std::size_t v = 0; v < title_wait.size(); ++v) {
      title_wait[v] = &wait_family.with_ids({v});
    }
    if (layout.has_value()) {
      plan_ns = &sink->metrics.sketch("client.plan_reception_ns");
      if (cache.has_value()) {
        // The A/B partner of plan_reception_ns: lookups that served a
        // cached canonical plan land here instead.
        plan_cache_hit_ns = &sink->metrics.sketch("client.plan_cache_hit_ns");
      }
    }
  }

  // Client arrivals stream through the event engine's arrival merge: each
  // is pulled from the generator when the clock reaches it, so memory stays
  // O(1) in the arrival count while the run is metered by (and interleaves
  // with) the same engine as the batching server.
  const auto handle_arrival = [&](const workload::Request& request) {
    probes.advance(request.arrival.v);
    const auto start =
        server.next_segment_start(request.video, 1, request.arrival);
    VB_ASSERT(start.has_value());
    const double wait = start->v - request.arrival.v;
    report.latency_minutes.add(wait);
    ++report.clients_served;
    std::uint64_t session_span = 0;
    if (sink != nullptr) {
      clients_counter->add();
      wait_sketch->observe(wait);
      title_wait[static_cast<std::size_t>(request.video)]->observe(wait);
      sink->trace.record(obs::TraceEvent{
          .sim_time_min = request.arrival.v,
          .kind = obs::EventKind::kClientArrival,
          .channel = 0,
          .video = request.video,
          .client = report.clients_served,
          .value = 0.0,
      });
      sink->trace.record(obs::TraceEvent{
          .sim_time_min = start->v,
          .kind = obs::EventKind::kTuneIn,
          .channel = 0,
          .video = request.video,
          .client = report.clients_served,
          .value = wait,
      });
      // Causal span tree: session covers arrival → playback end, with a
      // tune child for the wait (its duration *is* the reported wait — the
      // invariant trace_analyze --check leans on) and a playback child for
      // the consumption window. Download children follow per planned client.
      const double session_end = start->v + input.video.duration.v;
      session_span = sink->spans.record(obs::Span{
          .start_min = request.arrival.v,
          .end_min = session_end,
          .phase = obs::SpanPhase::kSession,
          .channel = 0,
          .video = request.video,
          .client = report.clients_served,
          .value = wait,
          .label = {},
      });
      sink->spans.record(obs::Span{
          .parent = session_span,
          .start_min = request.arrival.v,
          .end_min = start->v,
          .phase = obs::SpanPhase::kTune,
          .channel = 0,
          .video = request.video,
          .client = report.clients_served,
          .value = wait,
          .label = {},
      });
      sink->spans.record(obs::Span{
          .parent = session_span,
          .start_min = start->v,
          .end_min = session_end,
          .phase = obs::SpanPhase::kPlayback,
          .channel = 0,
          .video = request.video,
          .client = report.clients_served,
          .value = input.video.duration.v,
          .label = {},
      });
    }

    if (layout.has_value()) {
      // Playback starts at the joined broadcast, i.e. slot
      // round(start / D1); the quotient is integral up to rounding noise.
      const double d1 = layout->unit_duration().v;
      const auto t0 = static_cast<std::uint64_t>(
          std::llround(start->v / d1));
      client::ReceptionPlan local_plan;
      client::PlanView plan;
      if (cache.has_value()) {
        // A cheap contains() probe picks the timer before the clock starts,
        // so hit and miss latencies land in separate sketches.
        const bool cached = cache->contains(t0);
        const obs::ScopedTimer plan_timer(cached ? plan_cache_hit_ns
                                                 : plan_ns);
        plan = cache->at(t0);
      } else {
        const obs::ScopedTimer plan_timer(plan_ns);
        local_plan = client::plan_reception(*layout, t0);
        plan = client::PlanView(local_plan, 0, false);
      }
      if (!plan.jitter_free()) {
        ++report.jitter_events;
        obs::logf(obs::LogLevel::kWarn,
                  "simulate: jitter for client %llu of video %llu (t0=%llu)",
                  static_cast<unsigned long long>(report.clients_served),
                  static_cast<unsigned long long>(request.video),
                  static_cast<unsigned long long>(t0));
        if (sink != nullptr) {
          jitter_counter->add();
          sink->trace.record(obs::TraceEvent{
              .sim_time_min = start->v,
              .kind = obs::EventKind::kJitter,
              .channel = 0,
              .video = request.video,
              .client = report.clients_served,
              .value = 0.0,
          });
        }
      }
      report.max_concurrent_downloads =
          std::max(report.max_concurrent_downloads,
                   plan.max_concurrent_downloads());
      last_buffer_peak_units =
          static_cast<double>(plan.max_buffer_units());
      report.buffer_peak_mbits.add(plan.max_buffer(*layout).v);
      if (sink != nullptr) {
        pending_receptions.claim(
            ReceptionRecords{.plan = plan,
                             .d1 = d1,
                             .video = request.video,
                             .client = report.clients_served,
                             .session_span = session_span},
            defer_receptions);
      }

      if (fault_sweep.has_value()) {
        // Assess the downloads some episode touches against the fault plan
        // and play the recovery policy forward; every other download is
        // clean. Damage never becomes silent jitter: it is either repaired
        // (catch-up on a later repetition, or a disk stall absorbed in
        // place, both with the wait penalty recorded) or surfaced as
        // degradation.
        // Views hand out downloads already shifted into absolute time, so
        // damage is assessed against the arrival's real windows — cached
        // plans can never alias another episode's damage.
        for (const std::size_t di : fault_sweep->touched(plan)) {
          const auto d = plan.download(di);
          const double w_begin = static_cast<double>(d.start) * d1;
          const double w_end = static_cast<double>(d.end()) * d1;
          const double deadline_min = static_cast<double>(d.deadline) * d1;
          const double period_min = static_cast<double>(d.length) * d1;
          const auto damage = fault::assess_download(
              config.injector, w_begin, w_end, d.segment, period_min,
              report.clients_served * 4096 +
                  static_cast<std::uint64_t>(d.segment));
          if (!damage.damaged) {
            continue;
          }
          ++report.fault_hits;
          const auto episode = static_cast<double>(damage.episode);
          if (sink != nullptr) {
            fault_metrics
                ->hits(config.injector->plan().episodes()[damage.episode].kind)
                .add();
            sink->trace.record(obs::TraceEvent{
                .sim_time_min = w_end,
                .kind = obs::EventKind::kFaultHit,
                .channel = d.segment,
                .video = request.video,
                .client = report.clients_served,
                .value = episode,
            });
          }
          if (damage.repaired) {
            ++report.fault_repairs;
            // Download and playback both run at the display rate, so a
            // catch-up that slides the download later stalls every byte by
            // the same amount: the penalty is the effective start's
            // overshoot past the segment's playback deadline.
            const double effective_start =
                damage.repaired_at_min - (w_end - w_begin);
            const double penalty =
                std::max(0.0, effective_start - deadline_min);
            report.fault_penalty_minutes.add(penalty);
            if (sink != nullptr) {
              fault_metrics->repairs().add();
              fault_metrics->repair_penalty().observe(penalty);
              sink->trace.record(obs::TraceEvent{
                  .sim_time_min = damage.repaired_at_min,
                  .kind = obs::EventKind::kRepair,
                  .channel = d.segment,
                  .video = request.video,
                  .client = report.clients_served,
                  .value = penalty,
              });
              sink->spans.record(obs::Span{
                  .parent = session_span,
                  .start_min = w_end,
                  .end_min = damage.repaired_at_min,
                  .phase = obs::SpanPhase::kRepair,
                  .channel = d.segment,
                  .video = request.video,
                  .client = report.clients_served,
                  .value = penalty,
                  .label = {},
              });
            }
          } else {
            ++report.fault_degraded;
            if (sink != nullptr) {
              fault_metrics->degraded().add();
              sink->trace.record(obs::TraceEvent{
                  .sim_time_min =
                      w_end + static_cast<double>(damage.retries) * period_min,
                  .kind = obs::EventKind::kFaultDegraded,
                  .channel = d.segment,
                  .video = request.video,
                  .client = report.clients_served,
                  .value = episode,
              });
            }
          }
        }
      }
    }
  };

  EventQueue events;
  events.attach_sink(sink);
  workload::Request next = generator.next();
  events.run_until(
      config.horizon.v,
      [&] {
        return next.arrival.v < config.horizon.v ? next.arrival.v
                                                 : EventQueue::kNoArrival;
      },
      [&] {
        handle_arrival(next);
        next = generator.next();
      });

  probes.advance(config.horizon.v);
  if (sink != nullptr) {
    sink->metrics.gauge("sim.max_concurrent_downloads")
        .max_of(static_cast<double>(report.max_concurrent_downloads));
    if (cache.has_value()) {
      const auto& cs = cache->stats();
      // Counters so replication sinks sum: hits + misses == clients_served
      // is the invariant scripts/verify_all.sh asserts via metrics_check.
      sink->metrics.counter("sim.plan_cache.hits").add(cs.hits);
      sink->metrics.counter("sim.plan_cache.misses").add(cs.misses);
      sink->metrics.gauge("sim.plan_cache.entries")
          .max_of(static_cast<double>(cs.entries));
      sink->metrics.gauge("sim.plan_cache.bytes")
          .max_of(static_cast<double>(cs.bytes));
    }
    sink->metrics.counter("sim.stats.samples_folded")
        .add(report.latency_minutes.samples_folded() +
             report.buffer_peak_mbits.samples_folded() +
             report.fault_penalty_minutes.samples_folded());
    obs::logf(obs::LogLevel::kDebug,
              "simulate: done, %llu clients, %llu jitter events",
              static_cast<unsigned long long>(report.clients_served),
              static_cast<unsigned long long>(report.jitter_events));
  }
  return report;
}

ReplicatedReport simulate_replicated(const schemes::BroadcastScheme& scheme,
                                     const schemes::DesignInput& input,
                                     const SimulationConfig& config,
                                     std::size_t reps,
                                     util::TaskPool* pool) {
  const auto reports = replicate(
      reps, config.seed, pool, config.sink,
      [&](std::uint64_t seed, obs::Sink* sink) {
        SimulationConfig rep_config = config;
        rep_config.seed = seed;
        rep_config.sampler = nullptr;
        rep_config.sink = sink;
        return simulate(scheme, input, rep_config);
      });

  ReplicatedReport result;
  result.replications = reps;
  result.merged.scheme = reports.front().scheme;
  result.merged.peak_server_rate = reports.front().peak_server_rate;
  for (const auto& rep : reports) {
    result.merged.latency_minutes.merge(rep.latency_minutes);
    result.merged.buffer_peak_mbits.merge(rep.buffer_peak_mbits);
    result.merged.max_concurrent_downloads =
        std::max(result.merged.max_concurrent_downloads,
                 rep.max_concurrent_downloads);
    result.merged.clients_served += rep.clients_served;
    result.merged.jitter_events += rep.jitter_events;
    result.merged.fault_hits += rep.fault_hits;
    result.merged.fault_repairs += rep.fault_repairs;
    result.merged.fault_degraded += rep.fault_degraded;
    result.merged.fault_penalty_minutes.merge(rep.fault_penalty_minutes);
    if (!rep.latency_minutes.empty()) {
      result.replication_mean_latency.add(rep.latency_minutes.mean());
    }
  }

  result.latency_mean_ci95 = mean_ci95(result.replication_mean_latency);
  return result;
}

}  // namespace vodbcast::sim
