#include "campaigns.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "batching/queue_policies.hpp"
#include "batching/scheduled_multicast.hpp"
#include "client/plan_cache.hpp"
#include "client/reception_plan.hpp"
#include "ctrl/adaptive.hpp"
#include "ctrl/allocator.hpp"
#include "ctrl/popularity.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metro/federation.hpp"
#include "metro/placement.hpp"
#include "metro/router.hpp"
#include "metro/topology.hpp"
#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/broadcast_server.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

namespace vb = vodbcast;
using vb::workload::Request;

namespace {

/// Sample cap of the streaming stats in every engine that has one.
constexpr std::size_t kStatsCap = 65536;
/// The quantile sketch's relative accuracy (obs::QuantileSketch).
constexpr double kSketchError = 0.01;
/// The plan seed the CLI derives from a run seed, so a fault plan never
/// shares a stream with the workload.
constexpr std::uint64_t kFaultSeedMix = 0x9E3779B97F4A7C15ULL;

std::string format(const char* fmt, double a, double b) {
  char text[160];
  std::snprintf(text, sizeof text, fmt, a, b);
  return text;
}

std::vector<Request> generate(const std::vector<double>& popularity,
                              double arrivals_per_minute, std::uint64_t seed,
                              vb::core::Minutes horizon) {
  vb::workload::RequestGenerator generator(popularity, arrivals_per_minute,
                                           vb::util::Rng(seed));
  return generator.generate_until(horizon);
}

/// The SB:W design and metrics for `input`; throws when infeasible.
vb::schemes::Evaluation sb_evaluation(std::uint64_t width,
                                      const vb::schemes::DesignInput& input) {
  const vb::schemes::SkyscraperScheme scheme(width);
  const auto evaluation = scheme.evaluate(input);
  if (!evaluation.has_value()) {
    throw std::runtime_error("SB design infeasible for this workload");
  }
  return *evaluation;
}

/// The wait to the next Segment-1 start of a plan that starts a slot every
/// `d1` minutes from t = 0.
double slot_wait(double t, double d1) {
  const double into = std::fmod(t, d1);
  return into == 0.0 ? 0.0 : d1 - into;
}

/// a / b, or 0 when nothing was attempted.
double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void count_requests(std::size_t n, LayerMetrics& out) {
  out["workload.requests"] = static_cast<double>(n);
  out["workload.request_bytes"] = static_cast<double>(n * sizeof(Request));
}

/// Pre-schedules one event per arrival, with the campaign's capture, plus
/// one per extra instant, then steps the queue until it is empty.
void replay_dispatch(const std::vector<Request>& arrivals,
                     const std::vector<double>& extra, SpanLog& log,
                     LayerMetrics& out) {
  const SpanLog::Scope span(log, "sim.event_queue.dispatch");
  vb::sim::EventQueue events;
  std::uint64_t fired = 0;
  const auto on_arrival = [&fired](const Request&) { ++fired; };
  for (const auto& request : arrivals) {
    events.schedule(request.arrival.v,
                    [&on_arrival, request] { on_arrival(request); });
  }
  for (const double at : extra) {
    events.schedule(at, [&fired] { ++fired; });
  }
  out["sim.event_queue.pending_peak"] = static_cast<double>(events.pending());
  while (events.step()) {
  }
  out["sim.event_queue.events"] = static_cast<double>(fired);
}

void count_distribution(const vb::sim::Distribution& dist,
                        LayerMetrics& out) {
  out["sim.stats.samples_folded"] +=
      static_cast<double>(dist.samples_folded());
  out["sim.stats.retained_bytes"] +=
      static_cast<double>(dist.retained_bytes());
}

// ---------------------------------------------------------------------------
// sb_metro and sb_faults_observed: sim::simulate on one SB:W=52 head end.

class SbCampaign final : public Campaign {
 public:
  SbCampaign(double arrivals_per_minute, bool faults_observed,
             std::uint64_t seed)
      : scheme_(52),
        input_{.server_bandwidth = vb::core::MbitPerSec{2400.0},
               .num_videos = 20,
               .video = vb::core::VideoParams{vb::core::Minutes{120.0},
                                              vb::core::MbitPerSec{1.5}}},
        evaluation_(sb_evaluation(52, input_)) {
    config_.horizon = vb::core::Minutes{600.0};
    config_.arrivals_per_minute = arrivals_per_minute;
    config_.seed = seed;
    config_.plan_clients = true;
    config_.stats_sample_cap = kStatsCap;
    if (faults_observed) {
      auto spec = vb::fault::parse_plan_spec(
          "outages=2,bursts=1,stalls=1,restart=1");
      if (!spec.has_value()) {
        throw std::runtime_error("fault plan spec rejected");
      }
      spec->horizon_min = config_.horizon.v;
      spec->channels = evaluation_.design.segments;
      injector_.emplace(vb::fault::Plan::generate(*spec, seed ^ kFaultSeedMix),
                        vb::fault::RecoveryPolicy{.fec = {}, .retry_budget = 1});
      sink_ = std::make_unique<vb::obs::Sink>();
      config_.injector = &*injector_;
      config_.sink = sink_.get();
    }
  }

  std::uint64_t run() override {
    report_ = vb::sim::simulate(scheme_, input_, config_);
    return report_.clients_served;
  }

  void check(Checks& checks) const override {
    const double d1 = evaluation_.metrics.access_latency.v;
    const double buffer = evaluation_.metrics.client_buffer.v;
    const auto& waits = report_.latency_minutes;
    const auto& peaks = report_.buffer_peak_mbits;
    const auto arrivals = requests().size();
    checks.expect("sim: every generated arrival served",
                  report_.clients_served == arrivals,
                  format("served %.0f of %.0f",
                         static_cast<double>(report_.clients_served),
                         static_cast<double>(arrivals)));
    checks.expect("sim: max wait <= D1 (Metrics::access_latency)",
                  waits.max() <= d1 * (1.0 + 1e-9),
                  format("max %.9g min, D1 %.9g min", waits.max(), d1));
    checks.expect("sim: mean wait within 1% of D1 of D1/2",
                  std::abs(waits.mean() - d1 / 2.0) <= 0.01 * d1,
                  format("mean %.9g min, D1/2 %.9g min", waits.mean(),
                         d1 / 2.0));
    checks.expect("sim: at most 2 concurrent downloads",
                  report_.max_concurrent_downloads <= 2,
                  format("%.0f loaders, bound %.0f",
                         report_.max_concurrent_downloads, 2.0));
    checks.expect("sim: buffer peak <= Metrics::client_buffer",
                  peaks.max() <= buffer * (1.0 + 1e-9),
                  format("peak %.9g Mbit, bound %.9g Mbit", peaks.max(),
                         buffer));
    checks.expect("sim: jitter_events == 0", report_.jitter_events == 0,
                  format("%.0f jitter events, bound %.0f",
                         static_cast<double>(report_.jitter_events), 0.0));
    checks.expect(
        "fault: hits == repairs + degraded",
        report_.fault_hits == report_.fault_repairs + report_.fault_degraded,
        format("hits %.0f, repairs + degraded %.0f",
               static_cast<double>(report_.fault_hits),
               static_cast<double>(report_.fault_repairs +
                                   report_.fault_degraded)));
    checks.quantiles_in_range("sim: latency", waits);
    checks.quantiles_in_range("sim: buffer peak", peaks);
    checks.quantiles_in_range("sim: fault penalty",
                              report_.fault_penalty_minutes);
  }

  double replay(SpanLog& log, LayerMetrics& out) override {
    const auto& design = evaluation_.design;
    std::vector<Request> arrivals;
    {
      const SpanLog::Scope span(log, "workload.generate");
      arrivals = requests();
    }
    const std::size_t n = arrivals.size();
    count_requests(n, out);
    replay_dispatch(arrivals, {}, log, out);

    std::vector<double> starts(n);
    {
      const SpanLog::Scope span(log, "sim.broadcast_server.tune");
      const vb::sim::BroadcastServer server(scheme_.plan(input_, design));
      for (std::size_t i = 0; i < n; ++i) {
        const auto start = server.next_segment_start(arrivals[i].video, 1,
                                                     arrivals[i].arrival);
        if (!start.has_value()) {
          throw std::runtime_error("broadcast plan lacks a Segment-1 start");
        }
        starts[i] = start->v;
      }
    }

    const auto layout = scheme_.layout(input_, design);
    const double d1 = layout.unit_duration().v;
    std::vector<std::uint64_t> t0s(n);
    vb::client::PlanCache cache(layout);
    std::vector<double> buffer_peaks(n);
    // Views into cached plans stay valid for the cache's lifetime; the
    // fault replay walks their downloads.
    std::vector<vb::client::PlanView> views;
    {
      const SpanLog::Scope span(log, "client.plan_cache.lookup");
      if (injector_.has_value()) {
        views.reserve(n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        // Playback starts at slot round(start / D1), as in the campaign.
        t0s[i] = static_cast<std::uint64_t>(std::llround(starts[i] / d1));
        const auto view = cache.at(t0s[i]);
        buffer_peaks[i] = view.max_buffer(layout).v;
        if (injector_.has_value()) {
          views.push_back(view);
        }
      }
    }
    const auto& cs = cache.stats();
    out["client.plan_cache.hits"] = static_cast<double>(cs.hits);
    out["client.plan_cache.misses"] = static_cast<double>(cs.misses);
    out["client.plan_cache.hit_ratio"] = ratio(cs.hits, cs.hits + cs.misses);
    out["client.plan_cache.bytes"] = static_cast<double>(cs.bytes);
    {
      // The misses' planning, timed once more on its own: it is already
      // inside the lookup span, so it stays out of the layer sum.
      const SpanLog::Scope span(log, "client.plan_reception", false);
      std::unordered_set<std::uint64_t> planned;
      for (const auto t0 : t0s) {
        const auto phase = cache.enabled() ? t0 % cache.period() : t0;
        if (planned.insert(phase).second) {
          (void)vb::client::plan_reception(layout, t0);
        }
      }
    }

    std::vector<double> penalties;
    if (injector_.has_value()) {
      const SpanLog::Scope span(log, "fault.assess");
      std::uint64_t calls = 0;
      std::uint64_t hits = 0;
      std::uint64_t repairs = 0;
      std::uint64_t degraded = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto& view = views[i];
        for (std::size_t di = 0; di < view.download_count(); ++di) {
          const auto d = view.download(di);
          const double begin = static_cast<double>(d.start) * d1;
          const double end = static_cast<double>(d.end()) * d1;
          const double deadline = static_cast<double>(d.deadline) * d1;
          const double period = static_cast<double>(d.length) * d1;
          // The campaign keys each draw by its 1-based client ordinal.
          const auto damage = vb::fault::assess_download(
              &*injector_, begin, end, d.segment, period,
              (i + 1) * 4096 + static_cast<std::uint64_t>(d.segment));
          ++calls;
          if (!damage.damaged) {
            continue;
          }
          ++hits;
          if (damage.repaired) {
            ++repairs;
            penalties.push_back(std::max(
                0.0, damage.repaired_at_min - (end - begin) - deadline));
          } else {
            ++degraded;
          }
        }
      }
      out["fault.assess_calls"] = static_cast<double>(calls);
      out["fault.hits"] = static_cast<double>(hits);
      out["fault.repairs"] = static_cast<double>(repairs);
      out["fault.degraded"] = static_cast<double>(degraded);
      out["fault.repair_ratio"] = ratio(repairs, hits);
    }

    {
      const SpanLog::Scope span(log, "sim.stats.add");
      vb::sim::Distribution waits;
      vb::sim::Distribution peaks;
      vb::sim::Distribution penalty;
      for (auto* dist : {&waits, &peaks, &penalty}) {
        dist->set_sample_cap(kStatsCap);
      }
      for (std::size_t i = 0; i < n; ++i) {
        waits.add(starts[i] - arrivals[i].arrival.v);
        peaks.add(buffer_peaks[i]);
      }
      for (const double p : penalties) {
        penalty.add(p);
      }
      for (const auto* dist : {&waits, &peaks, &penalty}) {
        count_distribution(*dist, out);
      }
    }

    if (sink_ == nullptr) {
      return 0.0;
    }
    {
      const SpanLog::Scope span(log, "obs.campaign_without_sink", false);
      auto config = config_;
      config.sink = nullptr;
      (void)vb::sim::simulate(scheme_, input_, config);
    }
    const double overhead =
        log.seconds("campaign") - log.seconds("obs.campaign_without_sink");
    out["obs.overhead_s"] = overhead;
    {
      const SpanLog::Scope span(log, "obs.export", false);
      (void)sink_->metrics.to_json();
      (void)sink_->spans.to_jsonl();
    }
    const auto recorded = sink_->spans.recorded();
    out["obs.spans_recorded"] = static_cast<double>(recorded);
    out["obs.spans_dropped"] = static_cast<double>(sink_->spans.dropped());
    out["obs.span_keep_ratio"] = ratio(sink_->spans.size(), recorded);
    out["obs.trace_dropped"] = static_cast<double>(sink_->trace.dropped());
    return overhead;
  }

 private:
  [[nodiscard]] std::vector<Request> requests() const {
    return generate(vb::workload::zipf_probabilities(
                        static_cast<std::size_t>(input_.num_videos)),
                    config_.arrivals_per_minute, config_.seed,
                    config_.horizon);
  }

  vb::schemes::SkyscraperScheme scheme_;
  vb::schemes::DesignInput input_;
  vb::schemes::Evaluation evaluation_;
  vb::sim::SimulationConfig config_;
  std::optional<vb::fault::Injector> injector_;
  std::unique_ptr<vb::obs::Sink> sink_;
  vb::sim::SimulationReport report_;
};

// ---------------------------------------------------------------------------
// hybrid_adaptive: ctrl::simulate_adaptive with a mid-horizon popularity flip.

class AdaptiveCampaign final : public Campaign {
 public:
  explicit AdaptiveCampaign(std::uint64_t seed) {
    config_.total_bandwidth = vb::core::MbitPerSec{600.0};
    config_.catalog_size = 100;
    config_.hot_titles = 10;
    config_.broadcast_channels_per_video = 6;
    config_.sb_width = 52;
    config_.arrivals_per_minute = 600.0;
    config_.horizon = vb::core::Minutes{1500.0};
    config_.flip_at = vb::core::Minutes{750.0};
    config_.seed = seed;
  }

  std::uint64_t run() override {
    report_ = vb::ctrl::simulate_adaptive(policy_, config_);
    return report_.served_hot + report_.served_tail + report_.unserved;
  }

  void check(Checks& checks) const override {
    const auto arrivals = requests().size();
    const auto accounted =
        report_.served_hot + report_.served_tail + report_.unserved;
    checks.expect("ctrl: served_hot + served_tail + unserved == arrivals",
                  accounted == arrivals,
                  format("accounted %.0f, generated %.0f",
                         static_cast<double>(accounted),
                         static_cast<double>(arrivals)));
    checks.quantiles_in_range("ctrl: wait", report_.wait_minutes);
    checks.quantiles_in_range("ctrl: hot wait", report_.hot_wait_minutes);
    checks.quantiles_in_range("ctrl: tail wait", report_.tail_wait_minutes);
  }

  double replay(SpanLog& log, LayerMetrics& out) override {
    const auto& video = config_.video;
    const auto rank_probs = vb::workload::zipf_probabilities(
        config_.catalog_size, config_.zipf_theta);
    std::vector<Request> arrivals;
    {
      const SpanLog::Scope span(log, "workload.generate");
      arrivals = requests();
    }
    count_requests(arrivals.size(), out);

    const double epoch = config_.epoch.v;
    const double horizon = config_.horizon.v;
    std::vector<double> control = {config_.flip_at.v};
    for (double t = epoch; t < horizon; t += epoch) {
      control.push_back(t);
    }
    replay_dispatch(arrivals, control, log, out);

    const vb::ctrl::ChannelAllocator allocator(vb::ctrl::AllocatorConfig{
        .total_bandwidth = config_.total_bandwidth,
        .channel_rate = video.display_rate.v,
        .target_hot_titles = config_.hot_titles,
        .channels_per_video = config_.broadcast_channels_per_video,
        .min_tail_channels = config_.min_tail_channels,
        .promote_ratio = config_.promote_ratio,
        .demote_ratio = config_.demote_ratio,
    });
    vb::ctrl::PopularityEstimator estimator(config_.catalog_size,
                                            config_.half_life);
    estimator.seed_prior(rank_probs, config_.arrivals_per_minute);
    std::vector<Request> tail;
    int channels_per_video = config_.broadcast_channels_per_video;
    std::size_t hot_titles = 0;
    {
      const SpanLog::Scope span(log, "ctrl.observe");
      std::vector<std::size_t> hot;
      std::vector<bool> is_hot(config_.catalog_size, false);
      const auto reallocate = [&](double at) {
        const SpanLog::Scope realloc(log, "ctrl.reallocate");
        const auto alloc = allocator.reallocate(
            estimator.weights_at(vb::core::Minutes{at}), hot, {}, 0.0);
        hot = alloc.hot;
        channels_per_video = alloc.channels_per_video;
        std::fill(is_hot.begin(), is_hot.end(), false);
        for (const auto v : hot) {
          is_hot[v] = true;
        }
      };
      reallocate(0.0);
      double next_epoch = epoch;
      for (const auto& request : arrivals) {
        while (request.arrival.v >= next_epoch && next_epoch < horizon) {
          reallocate(next_epoch);
          next_epoch += epoch;
        }
        estimator.observe(request.video, request.arrival);
        if (!is_hot[request.video]) {
          tail.push_back(request);
        }
      }
      hot_titles = hot.size();
    }

    {
      const SpanLog::Scope span(log, "batching.multicast");
      const double hot_rate = static_cast<double>(hot_titles) *
                              channels_per_video * video.display_rate.v;
      vb::batching::MulticastConfig multicast;
      multicast.channels = static_cast<int>(
          (config_.total_bandwidth.v - hot_rate) / video.display_rate.v);
      multicast.video_length = video.duration;
      multicast.horizon = config_.horizon;
      multicast.seed = config_.seed;
      multicast.stats_sample_cap = kStatsCap;
      (void)vb::batching::simulate_scheduled_multicast(
          policy_, tail, config_.catalog_size, multicast);
    }
    out["batching.served_tail"] = static_cast<double>(report_.served_tail);
    out["batching.unserved"] = static_cast<double>(report_.unserved);
    out["ctrl.epochs"] = static_cast<double>(report_.epochs);
    out["ctrl.reallocs"] = static_cast<double>(report_.reallocs);
    out["ctrl.drains_completed"] =
        static_cast<double>(report_.drains_completed);

    {
      // The engine folds every served wait into the overall distribution
      // and into the hot or tail one: two adds per arrival.
      const SpanLog::Scope span(log, "sim.stats.add");
      const double d1 = report_.broadcast_worst_latency.v;
      vb::sim::Distribution waits;
      vb::sim::Distribution side;
      for (const auto& request : arrivals) {
        const double wait = slot_wait(request.arrival.v, d1);
        waits.add(wait);
        side.add(wait);
      }
      count_distribution(waits, out);
      count_distribution(side, out);
    }
    return 0.0;
  }

 private:
  /// The campaign's request stream: Zipf over ranks, with the rank->title
  /// map re-drawn at the flip exactly as the engine draws it.
  [[nodiscard]] std::vector<Request> requests() const {
    const auto n = config_.catalog_size;
    auto arrivals = generate(
        vb::workload::zipf_probabilities(n, config_.zipf_theta),
        config_.arrivals_per_minute, config_.seed, config_.horizon);
    std::vector<vb::core::VideoId> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
      perm[i] = static_cast<vb::core::VideoId>(i);
    }
    vb::util::Rng rng(config_.seed ^ 0x9e3779b9u);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[static_cast<std::size_t>(rng.next_below(i + 1))]);
    }
    for (auto& request : arrivals) {
      if (request.arrival.v >= config_.flip_at.v) {
        request.video = perm[request.video];
      }
    }
    return arrivals;
  }

  vb::batching::MqlPolicy policy_;
  vb::ctrl::AdaptiveConfig config_;
  vb::ctrl::AdaptiveReport report_;
};

// ---------------------------------------------------------------------------
// metro_federation: metro::simulate_federation over four regions on a
// two-worker task pool.

class FederationCampaign final : public Campaign {
 public:
  explicit FederationCampaign(std::uint64_t seed)
      : topology_({{700.0, 400}, {500.0, 300}, {300.0, 200}, {200.0, 150}},
                  32, vb::core::Minutes{0.5}),
        pool_(kWorkers) {
    config_.catalog_size = 100;
    config_.replicate_top = 10;
    config_.horizon = vb::core::Minutes{1800.0};
    config_.seed = seed;
    config_.stats_sample_cap = kStatsCap;
  }

  std::uint64_t run() override {
    report_ = vb::metro::simulate_federation(topology_, config_, &pool_);
    return report_.arrivals;
  }

  void check(Checks& checks) const override {
    std::size_t arrivals = 0;
    for (const auto& stream : requests()) {
      arrivals += stream.size();
    }
    const auto accounted =
        report_.served_local + report_.rerouted + report_.rejected;
    checks.expect("metro: served_local + rerouted + rejected == arrivals",
                  accounted == arrivals,
                  format("accounted %.0f, generated %.0f",
                         static_cast<double>(accounted),
                         static_cast<double>(arrivals)));
    std::uint64_t region_arrivals = 0;
    for (const auto& region : report_.regions) {
      region_arrivals += region.arrivals;
    }
    checks.expect("metro: region arrivals sum to the generated arrivals",
                  region_arrivals == arrivals,
                  format("regions %.0f, generated %.0f",
                         static_cast<double>(region_arrivals),
                         static_cast<double>(arrivals)));
    checks.quantiles_in_range("metro: penalized wait", report_.wait_minutes);
  }

  double replay(SpanLog& log, LayerMetrics& out) override {
    const std::size_t regions = topology_.size();
    std::optional<vb::metro::Placement> placement;
    {
      const SpanLog::Scope span(log, "metro.placement");
      const vb::metro::PlacementSolver solver(config_.catalog_size,
                                              config_.zipf_theta);
      placement = solver.solve(topology_, config_.replicate_top);
    }

    std::vector<std::vector<Request>> streams;
    {
      const SpanLog::Scope span(log, "workload.generate");
      streams = requests();
    }
    std::size_t n = 0;
    for (const auto& stream : streams) {
      n += stream.size();
    }
    count_requests(n, out);

    const double d1 =
        sb_evaluation(config_.sb_width,
                      {.server_bandwidth = vb::core::MbitPerSec{
                           config_.video.display_rate.v *
                           config_.sb_channels_per_title},
                       .num_videos = 1,
                       .video = config_.video})
            .metrics.access_latency.v;
    std::vector<std::vector<double>> waits(regions);
    {
      const SpanLog::Scope span(log, "metro.route");
      const int head = static_cast<int>(placement->replicated) *
                       config_.sb_channels_per_title;
      std::vector<int> tail_slots(regions);
      for (std::size_t r = 0; r < regions; ++r) {
        tail_slots[r] = std::max(0, topology_.region(r).channels - head);
      }
      vb::metro::RouterConfig router_config;
      router_config.video = config_.video;
      router_config.patience = config_.patience;
      router_config.spill_wait = config_.spill_wait;
      router_config.fault_plans = &config_.fault_plans;
      vb::metro::Router router(topology_, *placement, tail_slots,
                               router_config);
      std::uint64_t rerouted = 0;
      std::uint64_t rejected = 0;
      std::vector<std::size_t> cursor(regions, 0);
      for (;;) {
        // k-way time merge; ties go to the lower region index.
        std::size_t next = regions;
        for (std::size_t g = 0; g < regions; ++g) {
          if (cursor[g] < streams[g].size() &&
              (next == regions || streams[g][cursor[g]].arrival.v <
                                      streams[next][cursor[next]].arrival.v)) {
            next = g;
          }
        }
        if (next == regions) {
          break;
        }
        const auto& request = streams[next][cursor[next]++];
        const auto d = router.route(vb::metro::Arrival{
            request.arrival, request.video, static_cast<std::uint32_t>(next)});
        double wait = config_.reject_penalty.v;
        if (d.kind == vb::metro::RouteKind::kRejected) {
          ++rejected;
        } else {
          rerouted += d.kind == vb::metro::RouteKind::kRerouted ? 1 : 0;
          wait = d.transit_min +
                 (d.broadcast ? slot_wait(d.arrival_min + d.transit_min, d1)
                              : d.queue_wait_min);
        }
        waits[next].push_back(wait);
      }
      out["metro.route_calls"] = static_cast<double>(n);
      out["metro.rerouted"] = static_cast<double>(rerouted);
      out["metro.rejected"] = static_cast<double>(rejected);
    }

    {
      const SpanLog::Scope span(log, "sim.stats.add");
      vb::sim::Distribution merged;
      for (const auto& region_waits : waits) {
        vb::sim::Distribution dist;
        dist.set_sample_cap(config_.stats_sample_cap);
        for (const double w : region_waits) {
          dist.add(w);
        }
        merged.merge(dist);
        count_distribution(dist, out);
      }
      count_distribution(merged, out);
    }

    {
      const SpanLog::Scope span(log, "util.task_pool.one_worker", false);
      vb::util::TaskPool one(1);
      (void)vb::metro::simulate_federation(topology_, config_, &one);
    }
    out["task_pool.speedup"] = log.seconds("util.task_pool.one_worker") /
                               log.seconds("campaign");
    return 0.0;
  }

  [[nodiscard]] unsigned workers() const override { return kWorkers; }

 private:
  static constexpr unsigned kWorkers = 2;

  /// Region g's stream, seeded with the (g+1)-th SplitMix64 output of the
  /// run seed as the engine seeds it.
  [[nodiscard]] std::vector<std::vector<Request>> requests() const {
    const auto popularity = vb::workload::zipf_probabilities(
        config_.catalog_size, config_.zipf_theta);
    vb::util::SplitMix64 seeds(config_.seed);
    std::vector<std::vector<Request>> streams;
    for (const auto& region : topology_.regions()) {
      streams.push_back(generate(popularity, region.arrivals_per_minute,
                                 seeds.next(), config_.horizon));
    }
    return streams;
  }

  vb::metro::Topology topology_;
  vb::metro::FederationConfig config_;
  vb::util::TaskPool pool_;
  vb::metro::FederationReport report_;
};

}  // namespace

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  ++run_;
  if (!ok) {
    failures_.push_back(name + " (" + detail + ")");
  }
}

void Checks::quantiles_in_range(const std::string& name,
                                const vb::sim::Distribution& dist) {
  if (dist.empty()) {
    return;
  }
  const double lo = dist.min() - kSketchError * std::abs(dist.min());
  const double hi = dist.max() + kSketchError * std::abs(dist.max());
  for (const double q : {0.5, 0.95, 0.99}) {
    const double value = dist.quantile(q);
    char label[32];
    std::snprintf(label, sizeof label, " p%.0f in [min, max]", q * 100.0);
    expect(name + label, value >= lo && value <= hi,
           format("quantile %.9g, widened range ends at %.9g", value,
                  value < lo ? lo : hi));
  }
}

std::unique_ptr<Campaign> make_campaign(const std::string& workload,
                                        std::uint64_t seed) {
  if (workload == "sb_metro") {
    return std::make_unique<SbCampaign>(2000.0, false, seed);
  }
  if (workload == "sb_faults_observed") {
    return std::make_unique<SbCampaign>(250.0, true, seed);
  }
  if (workload == "hybrid_adaptive") {
    return std::make_unique<AdaptiveCampaign>(seed);
  }
  if (workload == "metro_federation") {
    return std::make_unique<FederationCampaign>(seed);
  }
  return nullptr;
}

const LayerNames& layer_names() {
  static const LayerNames names{
      .spans = {"workload.generate", "sim.event_queue.dispatch",
                "sim.broadcast_server.tune", "sim.stats.add",
                "client.plan_cache.lookup", "client.plan_reception",
                "fault.assess", "obs.overhead", "obs.export",
                "batching.multicast", "ctrl.observe", "ctrl.reallocate",
                "metro.placement", "metro.route"},
      .counters = {"workload.requests", "workload.request_bytes",
                   "sim.event_queue.events", "sim.event_queue.pending_peak",
                   "sim.stats.samples_folded", "sim.stats.retained_bytes",
                   "client.plan_cache.hits", "client.plan_cache.misses",
                   "client.plan_cache.hit_ratio", "client.plan_cache.bytes",
                   "fault.assess_calls", "fault.hits", "fault.repairs",
                   "fault.degraded", "fault.repair_ratio",
                   "obs.spans_recorded", "obs.spans_dropped",
                   "obs.span_keep_ratio", "obs.trace_dropped",
                   "batching.served_tail", "batching.unserved", "ctrl.epochs",
                   "ctrl.reallocs", "ctrl.drains_completed",
                   "metro.route_calls", "metro.rerouted", "metro.rejected",
                   "task_pool.speedup"},
  };
  return names;
}

}  // namespace perfbench
