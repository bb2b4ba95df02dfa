#include "metro/federation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/event_queue.hpp"
#include "sim/replicate.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vodbcast::metro {

namespace {

/// D1 of the replicated head's per-region SB design: each region gives
/// every head title K channels, so the broadcast latency is the SB access
/// latency at bandwidth K*b for one video. Throws when the design is
/// infeasible (K < 1).
double broadcast_d1(const FederationConfig& config) {
  if (config.replicate_top == 0) {
    return 0.0;
  }
  if (config.sb_channels_per_title < 1) {
    throw std::invalid_argument(
        "metro federation needs at least one SB channel per replicated "
        "title");
  }
  const schemes::SkyscraperScheme sb(config.sb_width);
  const schemes::DesignInput input{
      core::MbitPerSec{config.video.display_rate.v *
                       config.sb_channels_per_title},
      1, config.video};
  const auto eval = sb.evaluate(input);
  if (!eval.has_value()) {
    throw std::invalid_argument(
        "metro federation replicated-head SB design is infeasible at " +
        std::to_string(config.sb_channels_per_title) + " channels per title");
  }
  return eval->metrics.access_latency.v;
}

/// Broadcast tune wait: time to the next segment-1 repetition boundary.
double tune_wait(double t, double d1) {
  const double into = std::fmod(t, d1);
  return into == 0.0 ? 0.0 : d1 - into;
}

std::uint64_t mbits_to_bytes(double mbits) {
  return static_cast<std::uint64_t>(std::llround(mbits * 125000.0));
}

/// One region's demand-side accounting: its report slice plus, when the
/// campaign is observed, a private sink with pre-resolved instruments.
/// Only arrivals originating in the region are recorded here, in arrival
/// order, so the ledger has exactly one writer.
struct RegionLedger {
  RegionReport report;
  std::unique_ptr<obs::Sink> sink;
  obs::Counter* arrivals_total = nullptr;
  obs::Counter* region_arrivals = nullptr;
  obs::Counter* served_local = nullptr;
  obs::Counter* rerouted = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* link_bytes = nullptr;
  /// 1-based arrival ordinal within the region; numbers the spans.
  std::uint64_t ordinal = 0;

  RegionLedger(std::size_t g, const FederationConfig& config) {
    report.wait_minutes.set_sample_cap(config.stats_sample_cap);
    if (config.sink == nullptr) {
      return;
    }
    sink = std::make_unique<obs::Sink>(config.sink->trace.capacity(),
                                       config.sink->spans.capacity());
    auto& reg = sink->metrics;
    const std::string label = std::to_string(g);
    arrivals_total = &reg.counter("metro.arrivals");
    region_arrivals =
        &reg.counter_family("metro.region_arrivals", {"region"}).with({label});
    served_local =
        &reg.counter_family("metro.served_local", {"region"}).with({label});
    rerouted = &reg.counter_family("metro.rerouted", {"region"}).with({label});
    rejected = &reg.counter_family("metro.rejected", {"region"}).with({label});
    link_bytes =
        &reg.counter_family("metro.link_bytes", {"region"}).with({label});
  }

  /// Records one routed arrival: its penalized wait (broadcast tune wait or
  /// tail admission wait, plus link transit, or the rejection penalty),
  /// counters and spans.
  void record(const RouteDecision& d, const FederationConfig& config,
              double d1) {
    ++ordinal;
    double wait = 0.0;
    switch (d.kind) {
      case RouteKind::kRejected:
        wait = config.reject_penalty.v;
        ++report.rejected;
        break;
      case RouteKind::kLocal:
      case RouteKind::kRerouted:
        wait = d.transit_min +
               (d.broadcast ? tune_wait(d.arrival_min + d.transit_min, d1)
                            : d.queue_wait_min);
        if (d.kind == RouteKind::kLocal) {
          ++report.served_local;
        } else {
          ++report.rerouted_out;
        }
        break;
    }
    ++report.arrivals;
    report.link_mbits += d.link_mbits;
    report.wait_minutes.add(wait);
    if (sink == nullptr) {
      return;
    }

    arrivals_total->add();
    region_arrivals->add();
    switch (d.kind) {
      case RouteKind::kLocal:
        served_local->add();
        break;
      case RouteKind::kRerouted:
        rerouted->add();
        break;
      case RouteKind::kRejected:
        rejected->add();
        break;
    }
    if (d.link_mbits > 0.0) {
      link_bytes->add(mbits_to_bytes(d.link_mbits));
    }
    obs::Span session;
    session.start_min = d.arrival_min;
    session.end_min = d.kind == RouteKind::kRejected
                          ? d.arrival_min
                          : d.arrival_min + wait + config.video.duration.v;
    session.phase = obs::SpanPhase::kRegionSession;
    session.channel = static_cast<std::int32_t>(d.served_by);
    session.video = d.video;
    session.client = ordinal;
    session.value = wait;
    const auto id = sink->spans.record(session);
    if (d.kind == RouteKind::kRerouted) {
      obs::Span hop;
      hop.parent = id;
      hop.start_min = d.arrival_min;
      hop.end_min = d.arrival_min + d.transit_min;
      hop.phase = obs::SpanPhase::kReroute;
      hop.channel = static_cast<std::int32_t>(d.served_by);
      hop.video = d.video;
      hop.client = ordinal;
      hop.value = d.transit_min;
      sink->spans.record(hop);
    }
  }
};

/// One campaign with its region sinks not yet folded, so the replicated
/// runner can fold every replication's sinks in (replication, region)
/// order after its join.
struct FederationRun {
  FederationReport report;
  std::vector<std::unique_ptr<obs::Sink>> sinks;  ///< empty when unobserved
};

FederationRun run_federation(const Topology& topology,
                             const FederationConfig& config) {
  const std::size_t n = topology.size();
  if (!config.fault_plans.empty() && config.fault_plans.size() != n) {
    throw std::invalid_argument(
        "metro federation fault plans must be empty or one per region");
  }
  if (!(config.horizon.v > 0.0)) {
    throw std::invalid_argument("metro federation horizon must be positive");
  }
  const double d1 = broadcast_d1(config);

  const PlacementSolver solver(config.catalog_size, config.zipf_theta);
  const Placement placement = solver.solve(topology, config.replicate_top);

  // Channel budgets: the replicated head claims K channels per title in
  // every region; whatever is left serves the tail as stream slots.
  std::vector<int> tail_slots(n, 0);
  int tail_slots_total = 0;
  const int head_channels =
      static_cast<int>(placement.replicated) * config.sb_channels_per_title;
  for (std::size_t r = 0; r < n; ++r) {
    tail_slots[r] = std::max(0, topology.region(r).channels - head_channels);
    tail_slots_total += tail_slots[r];
  }

  // Region g draws its stream from a private Rng seeded with the (g+1)-th
  // output of SplitMix64(config.seed); each region holds a one-request
  // lookahead into its stream.
  util::SplitMix64 seed_stream(config.seed);
  std::vector<workload::RequestGenerator> generators;
  std::vector<workload::Request> lookahead;
  generators.reserve(n);
  lookahead.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    generators.emplace_back(solver.popularity(),
                            topology.region(g).arrivals_per_minute,
                            util::Rng(seed_stream.next()));
    lookahead.push_back(generators.back().next());
  }

  RouterConfig router_config;
  router_config.video = config.video;
  router_config.patience = config.patience;
  router_config.spill_wait = config.spill_wait;
  router_config.fault_plans = &config.fault_plans;
  Router router(topology, placement, tail_slots, router_config);

  std::vector<RegionLedger> ledgers;
  ledgers.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    ledgers.emplace_back(g, config);
  }

  // The streams meet in one k-way time-ordered merge (ties break on the
  // lower region index) and pass through the router, whose shared link and
  // slot state demands one writer; each decision is accounted to its origin
  // region's ledger as it is made.
  std::size_t next_region = n;
  sim::EventQueue events;
  events.run_until(
      config.horizon.v,
      [&] {
        next_region = n;
        double best = sim::EventQueue::kNoArrival;
        for (std::size_t g = 0; g < n; ++g) {
          const double at = lookahead[g].arrival.v;
          if (at < config.horizon.v && at < best) {
            next_region = g;
            best = at;
          }
        }
        return best;
      },
      [&] {
        const auto& req = lookahead[next_region];
        const RouteDecision d = router.route(
            Arrival{req.arrival, req.video,
                    static_cast<std::uint32_t>(next_region)});
        if (d.kind == RouteKind::kRerouted) {
          ++ledgers[d.served_by].report.rerouted_in;
        }
        ledgers[next_region].record(d, config, d1);
        lookahead[next_region] = generators[next_region].next();
      });

  // Fold in region index order.
  FederationRun run;
  FederationReport& out = run.report;
  out.wait_minutes.set_sample_cap(config.stats_sample_cap);
  out.replicated_titles = placement.replicated;
  out.tail_slots_total = tail_slots_total;
  out.broadcast_latency_min = d1;
  for (auto& ledger : ledgers) {
    const auto& r = ledger.report;
    out.arrivals += r.arrivals;
    out.served_local += r.served_local;
    out.rerouted += r.rerouted_out;
    out.rejected += r.rejected;
    out.link_mbits += r.link_mbits;
    out.wait_minutes.merge(r.wait_minutes);
    out.regions.push_back(std::move(ledger.report));
    if (ledger.sink != nullptr) {
      obs::publish_drop_metrics(*ledger.sink);
      run.sinks.push_back(std::move(ledger.sink));
    }
  }
  return run;
}

}  // namespace

FederationReport simulate_federation(const Topology& topology,
                                     const FederationConfig& config,
                                     util::TaskPool* /*pool*/) {
  FederationRun run = run_federation(topology, config);
  for (const auto& sink : run.sinks) {  // empty unless config.sink is set
    config.sink->merge_from(*sink);
  }
  return std::move(run.report);
}

ReplicatedFederationReport simulate_federation_replicated(
    const Topology& topology, const FederationConfig& config, std::size_t reps,
    util::TaskPool* pool) {
  // Replication contract: sim::replicate. No sink template: each region
  // ledger owns its sink, folded below in (replication, region) order.
  // Folding a replication's regions into one sink first would change the
  // merged rings, because ring order and span remapping make that fold
  // non-associative.
  const auto runs = sim::replicate(
      reps, config.seed, pool, nullptr,
      [&](std::uint64_t seed, obs::Sink* /*sink*/) {
        FederationConfig rep_config = config;
        rep_config.seed = seed;
        return run_federation(topology, rep_config);
      });

  ReplicatedFederationReport out;
  out.replications = reps;
  out.merged.wait_minutes.set_sample_cap(config.stats_sample_cap);
  for (const auto& run : runs) {
    const FederationReport& rep = run.report;
    if (out.merged.regions.empty()) {
      out.merged.regions.resize(rep.regions.size());
      for (auto& region : out.merged.regions) {
        region.wait_minutes.set_sample_cap(config.stats_sample_cap);
      }
      out.merged.replicated_titles = rep.replicated_titles;
      out.merged.tail_slots_total = rep.tail_slots_total;
      out.merged.broadcast_latency_min = rep.broadcast_latency_min;
    }
    for (std::size_t g = 0; g < rep.regions.size(); ++g) {
      auto& into = out.merged.regions[g];
      const auto& from = rep.regions[g];
      into.arrivals += from.arrivals;
      into.served_local += from.served_local;
      into.rerouted_out += from.rerouted_out;
      into.rerouted_in += from.rerouted_in;
      into.rejected += from.rejected;
      into.link_mbits += from.link_mbits;
      into.wait_minutes.merge(from.wait_minutes);
    }
    out.merged.arrivals += rep.arrivals;
    out.merged.served_local += rep.served_local;
    out.merged.rerouted += rep.rerouted;
    out.merged.rejected += rep.rejected;
    out.merged.link_mbits += rep.link_mbits;
    out.merged.wait_minutes.merge(rep.wait_minutes);
    if (!rep.wait_minutes.empty()) {
      out.replication_mean_wait.add(rep.wait_minutes.mean());
    }
    for (const auto& sink : run.sinks) {
      config.sink->merge_from(*sink);
    }
  }
  out.wait_mean_ci95 = sim::mean_ci95(out.replication_mean_wait);
  return out;
}

}  // namespace vodbcast::metro
