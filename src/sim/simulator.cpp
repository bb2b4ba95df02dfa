#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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

/// One damaged download of a planned client: its window in minutes and the
/// fault assessor's verdict.
struct DamagedDownload {
  int segment = 0;
  double w_begin = 0.0;
  double w_end = 0.0;
  double deadline_min = 0.0;
  double period_min = 0.0;
  fault::DownloadDamage damage;

  /// Download and playback both run at the display rate, so a catch-up that
  /// slides the download later stalls every byte by the same amount: the
  /// penalty is the effective start's overshoot past the segment's playback
  /// deadline.
  [[nodiscard]] double repair_penalty() const {
    const double effective_start = damage.repaired_at_min - (w_end - w_begin);
    return std::max(0.0, effective_start - deadline_min);
  }
  /// When the last catch-up repetition of a degraded download ended.
  [[nodiscard]] double degraded_at() const {
    return w_end + static_cast<double>(damage.retries) * period_min;
  }
};

/// Calls `visit` on each damaged download of `plan`, client `client`'s
/// reception plan, in download order. Only the downloads some episode
/// touches are assessed; every other download is clean. Views hand out
/// downloads already shifted into absolute time, so damage is assessed
/// against the arrival's real windows and cached plans never alias another
/// arrival's damage. The verdicts are a pure function of (client, plan), so
/// the arrival handler folds them and the record writer derives them again
/// for the clients whose records the rings keep.
template <class Visit>
void for_each_damaged(FaultSweep& sweep, const fault::Injector* injector,
                      client::PlanView plan, double d1, std::uint64_t client,
                      Visit&& visit) {
  for (const std::size_t di : sweep.touched(plan)) {
    const auto d = plan.download(di);
    DamagedDownload hit{
        .segment = d.segment,
        .w_begin = static_cast<double>(d.start) * d1,
        .w_end = static_cast<double>(d.end()) * d1,
        .deadline_min = static_cast<double>(d.deadline) * d1,
        .period_min = static_cast<double>(d.length) * d1,
        .damage = {},
    };
    hit.damage = fault::assess_download(
        injector, hit.w_begin, hit.w_end, d.segment, hit.period_min,
        client * 4096 + static_cast<std::uint64_t>(d.segment));
    if (hit.damage.damaged) {
      visit(hit);
    }
  }
}

/// One served client's sink records, claimed as one block per ring. In
/// ordinal order the trace block holds the arrival, the tune-in, a jitter
/// event when the plan misses a deadline, a start and an end event per
/// download, then per damaged download its hit followed by its repair or
/// degraded event. The span block holds the session, its tune and playback
/// children, a segment_download child per download (channel = segment
/// index, so the chrome export draws each download on its segment track with
/// a flow arrow from the session), then a repair child per repaired
/// download. An unplanned client (a scheme other than SB, or plan_clients
/// off) has no plan view, so no downloads, jitter or damage.
struct ClientRecords {
  client::PlanView plan;
  double arrival_min = 0.0;
  double start_min = 0.0;  ///< the joined segment-1 broadcast
  core::VideoId video = 0;
  std::uint64_t client = 0;
  std::size_t hits = 0;
  std::size_t repairs = 0;
  std::uint64_t first_event = 0;
  std::uint64_t first_span = 0;  ///< the session span; its id is one more

  [[nodiscard]] bool jitter() const {
    return plan.valid() && !plan.jitter_free();
  }
  [[nodiscard]] std::size_t downloads() const {
    return plan.valid() ? plan.download_count() : 0;
  }
  [[nodiscard]] std::size_t event_count() const {
    return 2 + (jitter() ? 1 : 0) + 2 * downloads() + 2 * hits;
  }
  [[nodiscard]] std::size_t span_count() const {
    return 3 + downloads() + repairs;
  }
};

/// Claims every served client's records and writes only those the sink's
/// rings keep. A block whose view is served from an enabled PlanCache (which
/// lives as long as the run) waits in a ring of pending blocks and is written
/// when the run ends, so whatever the sink's rings overwrite in the meantime
/// is never built. Any other view dies at the next plan lookup, so its block
/// is written at once; so is the block of an unplanned client, which owes
/// only its five session records. Blocks whose positions have all left both
/// rings are dropped before each push, which bounds the pending ring to about
/// a ring's worth of clients: it grows to that bound and then allocates no
/// more.
class ClientRecordWriter {
 public:
  /// `d1` is the layout's unit duration (unused without a layout). `sweep`
  /// is the run's fault sweep (null without one); it and the plan cache
  /// must outlive the writer.
  ClientRecordWriter(obs::Sink& sink, double d1, double duration_min,
                     FaultSweep* sweep, const fault::Injector* injector,
                     bool defer)
      : sink_(sink),
        d1_(d1),
        duration_min_(duration_min),
        sweep_(sweep),
        injector_(injector),
        defer_(defer) {}
  ClientRecordWriter(const ClientRecordWriter&) = delete;
  ClientRecordWriter& operator=(const ClientRecordWriter&) = delete;
  /// Blocks are still pending here only when the run exits by an
  /// exception: they are written so that no claimed placeholder reaches a
  /// reader of the rings, and a failure to write them is logged, because
  /// the exception already on its way to the caller must not be replaced.
  ~ClientRecordWriter() {
    try {
      finish();
    } catch (const std::exception& e) {
      obs::logf(obs::LogLevel::kError,
                "simulate: pending client records left unwritten: %s",
                e.what());
    }
  }

  /// Writes every pending block; called once the run is over.
  void finish() {
    while (count_ > 0) {
      const ClientRecords& block = pending_[head_];
      drop_front();
      write(block);
    }
  }

  /// Claims the ring positions of `block`'s records: one claim per ring.
  void claim(ClientRecords block) {
    block.first_event = sink_.trace.reserve(block.event_count());
    // The block owns no span position until the span claim succeeds, so a
    // write on the way out of a failed claim skips the spans.
    block.first_span = sink_.spans.recorded();
    try {
      block.first_span = sink_.spans.reserve(block.span_count());
      if (defer_) {
        while (count_ > 0 && overwritten(pending_[head_])) {
          drop_front();
        }
        push(block);
        return;
      }
    } catch (...) {
      write(block);
      throw;
    }
    write(block);
  }

 private:
  [[nodiscard]] bool overwritten(const ClientRecords& block) const {
    return !sink_.trace.retained(block.first_event + block.event_count() - 1) &&
           !sink_.spans.retained(block.first_span + block.span_count() - 1);
  }

  /// Drops the oldest pending block; its slot stays readable until the next
  /// push.
  void drop_front() noexcept {
    head_ = (head_ + 1) & (pending_.size() - 1);
    --count_;
  }

  /// Appends `block`, doubling the ring when it is full. Strong exception
  /// guarantee.
  void push(const ClientRecords& block) {
    if (count_ == pending_.size()) {
      std::vector<ClientRecords> grown(
          std::max<std::size_t>(64, 2 * pending_.size()));
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = pending_[(head_ + i) & (pending_.size() - 1)];
      }
      pending_.swap(grown);
      head_ = 0;
    }
    pending_[(head_ + count_) & (pending_.size() - 1)] = block;
    ++count_;
  }

  /// Writes the positions of `block` the sink's rings still retain.
  void write(const ClientRecords& block) {
    if (overwritten(block)) {
      return;
    }
    obs::Tracer& trace = sink_.trace;
    obs::SpanTracer& spans = sink_.spans;
    std::uint64_t event = block.first_event;
    std::uint64_t span = block.first_span;
    const std::uint64_t session = block.first_span + 1;
    const auto put_event = [&](obs::EventKind kind, double time_min,
                               std::int32_t channel, double value) {
      if (trace.retained(event)) {
        trace.fill(event, obs::TraceEvent{
                              .sim_time_min = time_min,
                              .kind = kind,
                              .channel = channel,
                              .video = block.video,
                              .client = block.client,
                              .value = value,
                          });
      }
      ++event;
    };
    const auto put_span = [&](obs::SpanPhase phase, std::uint64_t parent,
                              double start_min, double end_min,
                              std::int32_t channel, double value) {
      if (spans.retained(span)) {
        spans.fill(span, obs::Span{
                             .parent = parent,
                             .start_min = start_min,
                             .end_min = end_min,
                             .phase = phase,
                             .channel = channel,
                             .video = block.video,
                             .client = block.client,
                             .value = value,
                             .label = {},
                         });
      }
      ++span;
    };

    const double wait = block.start_min - block.arrival_min;
    put_event(obs::EventKind::kClientArrival, block.arrival_min, 0, 0.0);
    put_event(obs::EventKind::kTuneIn, block.start_min, 0, wait);
    if (block.jitter()) {
      put_event(obs::EventKind::kJitter, block.start_min, 0, 0.0);
    }
    // Causal span tree: the session covers arrival → playback end, with a
    // tune child for the wait (its duration *is* the reported wait — the
    // invariant trace_analyze --check leans on) and a playback child for
    // the consumption window.
    const double session_end = block.start_min + duration_min_;
    put_span(obs::SpanPhase::kSession, 0, block.arrival_min, session_end, 0,
             wait);
    put_span(obs::SpanPhase::kTune, session, block.arrival_min,
             block.start_min, 0, wait);
    put_span(obs::SpanPhase::kPlayback, session, block.start_min, session_end,
             0, duration_min_);

    for (std::size_t i = 0; i < block.downloads(); ++i) {
      const auto d = block.plan.download(i);
      const double start_min = static_cast<double>(d.start) * d1_;
      const double length_min = static_cast<double>(d.length) * d1_;
      put_event(obs::EventKind::kSegmentDownloadStart, start_min, d.segment,
                length_min);
      put_event(obs::EventKind::kSegmentDownloadEnd, start_min + length_min,
                d.segment, 0.0);
      put_span(obs::SpanPhase::kSegmentDownload, session, start_min,
               start_min + length_min, d.segment, length_min);
    }

    if (block.hits == 0) {
      return;
    }
    VB_ASSERT(sweep_ != nullptr);
    for_each_damaged(
        *sweep_, injector_, block.plan, d1_, block.client,
        [&](const DamagedDownload& hit) {
          const auto episode = static_cast<double>(hit.damage.episode);
          put_event(obs::EventKind::kFaultHit, hit.w_end, hit.segment,
                    episode);
          if (hit.damage.repaired) {
            const double penalty = hit.repair_penalty();
            put_event(obs::EventKind::kRepair, hit.damage.repaired_at_min,
                      hit.segment, penalty);
            put_span(obs::SpanPhase::kRepair, session, hit.w_end,
                     hit.damage.repaired_at_min, hit.segment, penalty);
          } else {
            put_event(obs::EventKind::kFaultDegraded, hit.degraded_at(),
                      hit.segment, episode);
          }
        });
    VB_ASSERT(event == block.first_event + block.event_count());
  }

  obs::Sink& sink_;
  double d1_;
  double duration_min_;
  FaultSweep* sweep_;
  const fault::Injector* injector_;
  bool defer_;
  /// Pending blocks, oldest at head_; the size is zero or a power of two.
  std::vector<ClientRecords> pending_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
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
  // Declared after the cache and the sweep, so the blocks it still holds
  // when the run ends are written while the cache's views are alive.
  std::optional<ClientRecordWriter> client_records;
  if (sink != nullptr) {
    client_records.emplace(
        *sink, layout.has_value() ? layout->unit_duration().v : 0.0,
        input.video.duration.v,
        fault_sweep.has_value() ? &*fault_sweep : nullptr, config.injector,
        cache.has_value() && cache->enabled());
  }

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
    if (sink != nullptr) {
      clients_counter->add();
      wait_sketch->observe(wait);
      title_wait[static_cast<std::size_t>(request.video)]->observe(wait);
    }
    ClientRecords records{
        .plan = {},
        .arrival_min = request.arrival.v,
        .start_min = start->v,
        .video = request.video,
        .client = report.clients_served,
    };
    // Outlives the claim below, which writes a block whose view points here
    // at once.
    client::ReceptionPlan local_plan;

    if (layout.has_value()) {
      // Playback starts at the joined broadcast, i.e. slot
      // round(start / D1); the quotient is integral up to rounding noise.
      const double d1 = layout->unit_duration().v;
      const auto t0 = static_cast<std::uint64_t>(
          std::llround(start->v / d1));
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
      records.plan = plan;
      if (!plan.jitter_free()) {
        ++report.jitter_events;
        obs::logf(obs::LogLevel::kWarn,
                  "simulate: jitter for client %llu of video %llu (t0=%llu)",
                  static_cast<unsigned long long>(report.clients_served),
                  static_cast<unsigned long long>(request.video),
                  static_cast<unsigned long long>(t0));
        if (sink != nullptr) {
          jitter_counter->add();
        }
      }
      report.max_concurrent_downloads =
          std::max(report.max_concurrent_downloads,
                   plan.max_concurrent_downloads());
      last_buffer_peak_units =
          static_cast<double>(plan.max_buffer_units());
      report.buffer_peak_mbits.add(plan.max_buffer(*layout).v);

      if (fault_sweep.has_value()) {
        // Play the recovery policy forward on every damaged download.
        // Damage never becomes silent jitter: it is either repaired
        // (catch-up on a later repetition, or a disk stall absorbed in
        // place, both with the wait penalty recorded) or surfaced as
        // degradation.
        for_each_damaged(
            *fault_sweep, config.injector, plan, d1, report.clients_served,
            [&](const DamagedDownload& hit) {
              ++report.fault_hits;
              ++records.hits;
              if (sink != nullptr) {
                fault_metrics
                    ->hits(config.injector->plan()
                               .episodes()[hit.damage.episode]
                               .kind)
                    .add();
              }
              if (hit.damage.repaired) {
                ++report.fault_repairs;
                ++records.repairs;
                const double penalty = hit.repair_penalty();
                report.fault_penalty_minutes.add(penalty);
                if (sink != nullptr) {
                  fault_metrics->repairs().add();
                  fault_metrics->repair_penalty().observe(penalty);
                }
              } else {
                ++report.fault_degraded;
                if (sink != nullptr) {
                  fault_metrics->degraded().add();
                }
              }
            });
      }
    }
    if (client_records.has_value()) {
      client_records->claim(records);
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
  if (client_records.has_value()) {
    client_records->finish();
  }
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
