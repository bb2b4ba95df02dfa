#include "batching/hybrid.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/log.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::batching {

HybridReport evaluate_hybrid(const BatchingPolicy& policy,
                             const HybridConfig& config) {
  VB_EXPECTS(config.hot_titles >= 1);
  VB_EXPECTS(config.broadcast_channels_per_video >= 1);
  // Caller-facing input validation (not programming-error contracts): these
  // bounds depend on runtime configuration, so violations throw
  // std::invalid_argument carrying the violated bound.
  if (config.hot_titles > config.catalog_size) {
    throw std::invalid_argument(
        "evaluate_hybrid: hot_titles (" + std::to_string(config.hot_titles) +
        ") exceeds catalog_size (" + std::to_string(config.catalog_size) +
        "); the hot set must be a subset of the catalog");
  }
  // The tail simulation refuses a bad horizon too, but it does not run
  // when the whole catalog is hot.
  if (!(config.horizon.v > 0.0)) {
    throw std::invalid_argument(
        "evaluate_hybrid: horizon must be positive, got " +
        std::to_string(config.horizon.v) + " min");
  }

  const double b = config.video.display_rate.v;
  const double broadcast_bw = b * config.broadcast_channels_per_video *
                              static_cast<double>(config.hot_titles);
  const double remaining_bw = config.total_bandwidth.v - broadcast_bw;
  const int multicast_channels =
      static_cast<int>(util::robust_floor(remaining_bw / b));
  if (multicast_channels < 1) {
    throw std::invalid_argument(
        "evaluate_hybrid: broadcast side needs " +
        std::to_string(broadcast_bw) + " Mb/s of the " +
        std::to_string(config.total_bandwidth.v) +
        " Mb/s budget, leaving no whole " + std::to_string(b) +
        " Mb/s channel for the scheduled-multicast tail (>= 1 required)");
  }

  // Broadcast side: SB over the hot titles with K channels each.
  const schemes::SkyscraperScheme sb(config.sb_width);
  const schemes::DesignInput sb_input{
      .server_bandwidth = core::MbitPerSec{broadcast_bw},
      .num_videos = static_cast<int>(config.hot_titles),
      .video = config.video,
  };
  const auto evaluation = sb.evaluate(sb_input);
  VB_EXPECTS(evaluation.has_value());

  // Workload: split one Zipf stream into hot (absorbed by broadcast) and
  // cold (queued for multicast) requests; only the cold side is kept.
  const auto popularity = workload::zipf_probabilities(config.catalog_size);
  workload::RequestGenerator generator(popularity, config.arrivals_per_minute,
                                       util::Rng(config.seed));
  std::vector<workload::Request> cold;
  std::uint64_t hot_count = 0;
  for (auto r = generator.next(); r.arrival.v < config.horizon.v;
       r = generator.next()) {
    if (r.video < config.hot_titles) {
      ++hot_count;
    } else {
      cold.push_back(workload::Request{
          .arrival = r.arrival,
          .video = r.video - static_cast<core::VideoId>(config.hot_titles),
      });
    }
  }

  obs::logf(obs::LogLevel::kDebug,
            "hybrid: %zu hot titles at %.1f Mb/s broadcast, %d tail channels",
            config.hot_titles, broadcast_bw, multicast_channels);
  if (config.sink != nullptr) {
    config.sink->metrics.gauge("hybrid.broadcast_bandwidth_mbps")
        .set(broadcast_bw);
    config.sink->metrics.gauge("hybrid.multicast_channels")
        .set(static_cast<double>(multicast_channels));
    config.sink->metrics.counter("hybrid.hot_requests").add(hot_count);
    config.sink->metrics.counter("hybrid.cold_requests").add(cold.size());
  }

  const MulticastConfig mc{
      .channels = multicast_channels,
      .video_length = config.video.duration,
      .horizon = config.horizon,
      .mean_patience = config.mean_patience,
      .seed = config.seed + 1,
      .stats_sample_cap = config.stats_sample_cap,
      .sink = config.sink,
      .sampler = config.sampler,
  };
  HybridReport report;
  if (config.catalog_size > config.hot_titles) {
    report.multicast = simulate_scheduled_multicast(
        policy, cold, config.catalog_size - config.hot_titles, mc);
  }
  // else: the whole catalog is broadcast; the tail channel idles and the
  // default (empty) multicast report stands.

  report.hot_titles = config.hot_titles;
  double mass = 0.0;
  for (std::size_t i = 0; i < config.hot_titles; ++i) {
    mass += popularity[i];
  }
  report.hot_demand_fraction = mass;
  report.broadcast_worst_latency = evaluation->metrics.access_latency;
  report.broadcast_bandwidth = core::MbitPerSec{broadcast_bw};
  report.multicast_channels = multicast_channels;

  // Hot requests wait uniformly within the broadcast period -> half the
  // worst latency on average; cold requests use the simulated mean.
  const double hot_mean = evaluation->metrics.access_latency.v / 2.0;
  const double cold_mean = report.multicast.wait_minutes.empty()
                               ? 0.0
                               : report.multicast.wait_minutes.mean();
  const double total_requests =
      static_cast<double>(hot_count + report.multicast.served);
  report.combined_mean_wait_minutes =
      total_requests == 0.0
          ? 0.0
          : (hot_mean * static_cast<double>(hot_count) +
             cold_mean * static_cast<double>(report.multicast.served)) /
                total_requests;
  return report;
}

}  // namespace vodbcast::batching
