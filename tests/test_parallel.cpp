// Determinism contract of the parallel adopters: a TaskPool changes who
// computes each slot, never the result. Every test here compares the serial
// path (null pool) against a many-worker pool bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "batching/queue_policies.hpp"
#include "ctrl/adaptive.hpp"
#include "fault/injector.hpp"
#include "metro/federation.hpp"
#include "metro/topology.hpp"
#include "obs/sink.hpp"
#include "schemes/registry.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace vodbcast {
namespace {

void expect_identical(const std::vector<analysis::SchemeSweep>& a,
                      const std::vector<analysis::SchemeSweep>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].scheme, b[s].scheme);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      const auto& pa = a[s].points[p];
      const auto& pb = b[s].points[p];
      EXPECT_EQ(pa.bandwidth_mbps, pb.bandwidth_mbps);
      ASSERT_EQ(pa.evaluation.has_value(), pb.evaluation.has_value());
      if (pa.evaluation.has_value()) {
        EXPECT_EQ(pa.evaluation->design.segments,
                  pb.evaluation->design.segments);
        EXPECT_EQ(pa.evaluation->design.replicas,
                  pb.evaluation->design.replicas);
        EXPECT_EQ(pa.evaluation->design.alpha, pb.evaluation->design.alpha);
        EXPECT_EQ(pa.evaluation->metrics.access_latency.v,
                  pb.evaluation->metrics.access_latency.v);
        EXPECT_EQ(pa.evaluation->metrics.client_buffer.v,
                  pb.evaluation->metrics.client_buffer.v);
        EXPECT_EQ(pa.evaluation->metrics.client_disk_bandwidth.v,
                  pb.evaluation->metrics.client_disk_bandwidth.v);
      }
    }
  }
}

TEST(ParallelSweepTest, PooledSweepMatchesSerialBitForBit) {
  const auto set = schemes::paper_figure_set();
  const auto input = analysis::paper_design_input();
  const auto axis = analysis::bandwidth_range(100.0, 600.0, 25.0);

  const auto serial = analysis::sweep_bandwidth(set, input, axis, nullptr);
  util::TaskPool pool(8);
  const auto pooled = analysis::sweep_bandwidth(set, input, axis, &pool);
  expect_identical(serial, pooled);
}

TEST(ParallelSweepTest, FigureReportsIdenticalAcrossThreadCounts) {
  util::TaskPool pool(8);
  const auto serial = analysis::figure7_access_latency(nullptr);
  const auto pooled = analysis::figure7_access_latency(&pool);
  EXPECT_EQ(serial.csv, pooled.csv);
  EXPECT_EQ(serial.plot, pooled.plot);
  EXPECT_EQ(serial.table, pooled.table);
}

sim::SimulationConfig replication_config(obs::Sink* sink) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{120.0};
  config.arrivals_per_minute = 4.0;
  config.seed = 42;
  config.plan_clients = true;
  config.sink = sink;
  return config;
}

TEST(ReplicatedSimTest, MergedReportBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  obs::Sink sink_serial(4096);
  const auto serial = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_serial), 6, nullptr);

  obs::Sink sink_pooled(4096);
  util::TaskPool pool(8);
  const auto pooled = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_pooled), 6, &pool);

  // Sample vectors preserve merge order, so equality here is bitwise.
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            pooled.merged.latency_minutes.samples());
  EXPECT_EQ(serial.merged.buffer_peak_mbits.samples(),
            pooled.merged.buffer_peak_mbits.samples());
  EXPECT_EQ(serial.merged.clients_served, pooled.merged.clients_served);
  EXPECT_EQ(serial.merged.jitter_events, pooled.merged.jitter_events);
  EXPECT_EQ(serial.merged.max_concurrent_downloads,
            pooled.merged.max_concurrent_downloads);
  EXPECT_EQ(serial.replication_mean_latency.samples(),
            pooled.replication_mean_latency.samples());
  EXPECT_EQ(serial.latency_mean_ci95, pooled.latency_mean_ci95);

  // Counters, gauges and the trace merge identically; sketches are
  // compared in MergedFamiliesAndSketchesBitIdenticalAtAnyThreadCount.
  const auto ms = sink_serial.metrics.snapshot();
  const auto mp = sink_pooled.metrics.snapshot();
  EXPECT_EQ(ms.counters, mp.counters);
  EXPECT_EQ(ms.gauges, mp.gauges);
  EXPECT_EQ(sink_serial.trace.to_jsonl(), sink_pooled.trace.to_jsonl());
}

TEST(ReplicatedSimTest, MergedFamiliesAndSketchesBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  obs::Sink sink_serial(4096);
  const auto serial = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_serial), 6, nullptr);

  obs::Sink sink_pooled(4096);
  util::TaskPool pool(4);
  const auto pooled = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_pooled), 6, &pool);
  ASSERT_EQ(serial.merged.clients_served, pooled.merged.clients_served);

  const auto ms = sink_serial.metrics.snapshot();
  const auto mp = sink_pooled.metrics.snapshot();

  const auto series_id = [](const std::string& name,
                            const obs::Snapshot::Labels& labels) {
    std::string id = name + "{";
    for (const auto& [k, v] : labels) {
      id += k + "=" + v + ";";
    }
    return id + "}";
  };

  // Labeled counters and gauges fold label-wise in fixed replication
  // order; both the series sets and the values must match bit for bit.
  std::vector<std::pair<std::string, std::uint64_t>> cs;
  std::vector<std::pair<std::string, std::uint64_t>> cp;
  for (const auto& v : ms.family_counters) {
    cs.emplace_back(series_id(v.name, v.labels), v.value);
  }
  for (const auto& v : mp.family_counters) {
    cp.emplace_back(series_id(v.name, v.labels), v.value);
  }
  EXPECT_EQ(cs, cp);

  std::vector<std::pair<std::string, double>> gs;
  std::vector<std::pair<std::string, double>> gp;
  for (const auto& v : ms.family_gauges) {
    gs.emplace_back(series_id(v.name, v.labels), v.value);
  }
  for (const auto& v : mp.family_gauges) {
    gp.emplace_back(series_id(v.name, v.labels), v.value);
  }
  EXPECT_FALSE(gs.empty());  // per-channel utilization must be present
  EXPECT_EQ(gs, gp);

  // Sketches merge bucket-wise; every per-title wait sketch must carry
  // identical bucket maps, tail stats, and quantile estimates. The *_ns
  // timing sketches measure host wall time, which no schedule can make
  // reproducible, so only their sample counts must agree.
  ASSERT_EQ(ms.sketches.size(), mp.sketches.size());
  ASSERT_FALSE(ms.sketches.empty());
  for (std::size_t i = 0; i < ms.sketches.size(); ++i) {
    const auto& a = ms.sketches[i];
    const auto& b = mp.sketches[i];
    ASSERT_EQ(series_id(a.name, a.labels), series_id(b.name, b.labels));
    EXPECT_EQ(a.count, b.count) << a.name;
    if (a.name.ends_with("_ns")) {
      continue;
    }
    EXPECT_EQ(a.sketch.buckets(), b.sketch.buckets()) << a.name;
    EXPECT_EQ(a.zero_count, b.zero_count) << a.name;
    EXPECT_EQ(a.sum, b.sum) << a.name;
    EXPECT_EQ(a.min, b.min) << a.name;
    EXPECT_EQ(a.max, b.max) << a.name;
    EXPECT_EQ(a.p99, b.p99) << a.name;
    EXPECT_EQ(a.p999, b.p999) << a.name;
  }
}

TEST(ReplicatedSimTest, SeedRuleIsTheSplitMixStream) {
  // Replication r consumes the (r+1)-th SplitMix64 output of config.seed;
  // a single replication therefore reproduces simulate() run with that
  // derived seed exactly.
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);
  auto config = replication_config(nullptr);

  const auto replicated =
      sim::simulate_replicated(*scheme, input, config, 1, nullptr);

  util::SplitMix64 stream(config.seed);
  auto derived = config;
  derived.seed = stream.next();
  const auto direct = sim::simulate(*scheme, input, derived);
  EXPECT_EQ(replicated.merged.latency_minutes.samples(),
            direct.latency_minutes.samples());
  EXPECT_EQ(replicated.merged.clients_served, direct.clients_served);
  EXPECT_EQ(replicated.replications, 1U);
  EXPECT_EQ(replicated.latency_mean_ci95, 0.0);  // undefined below 2 reps
}

TEST(ReplicatedSimTest, ReplicationsAreIndependentAndAggregated) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);
  const auto config = replication_config(nullptr);

  const auto replicated =
      sim::simulate_replicated(*scheme, input, config, 4, nullptr);
  EXPECT_EQ(replicated.replications, 4U);
  EXPECT_EQ(replicated.replication_mean_latency.count(), 4U);
  EXPECT_GT(replicated.latency_mean_ci95, 0.0);
  // Different seeds: the per-replication means are not all equal.
  const auto& means = replicated.replication_mean_latency.samples();
  bool all_equal = true;
  for (const double m : means) {
    all_equal = all_equal && (m == means.front());
  }
  EXPECT_FALSE(all_equal);
  EXPECT_EQ(replicated.merged.latency_minutes.count(),
            replicated.merged.clients_served);
}

// The shard-merge tie-break contract: when events/spans from different
// shards carry the *same* timestamp, the merged order is pinned to shard
// index first, record index within the shard second — never to anything a
// thread schedule could perturb.
TEST(ShardMergeTieBreakTest, TracerBreaksEqualTimestampsByShardThenRecord) {
  obs::Tracer shard0(8);
  obs::Tracer shard1(8);
  const auto tagged = [](double t, std::uint64_t tag) {
    obs::TraceEvent e;
    e.sim_time_min = t;
    e.kind = obs::EventKind::kClientArrival;
    e.client = tag;
    return e;
  };
  // Both shards record two events at the identical instant.
  shard0.record(tagged(1.0, 1));
  shard0.record(tagged(1.0, 2));
  shard1.record(tagged(1.0, 3));
  shard1.record(tagged(1.0, 4));

  obs::Tracer merged(8);
  merged.merge_from(shard0);  // fixed shard order: 0 then 1
  merged.merge_from(shard1);
  const auto events = merged.events();
  ASSERT_EQ(events.size(), 4U);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].client, i + 1) << "tie broken out of shard order";
  }
}

TEST(ShardMergeTieBreakTest, SpanTracerBreaksEqualStartsByShardThenRecord) {
  const auto tagged = [](std::uint64_t tag) {
    obs::Span s;
    s.start_min = 1.0;
    s.end_min = 2.0;
    s.client = tag;
    return s;
  };
  obs::SpanTracer shard0(8);
  obs::SpanTracer shard1(8);
  shard0.record(tagged(1));
  shard0.record(tagged(2));
  shard1.record(tagged(3));
  shard1.record(tagged(4));

  obs::SpanTracer merged(8);
  merged.merge_from(shard0);
  merged.merge_from(shard1);
  const auto spans = merged.spans();
  ASSERT_EQ(spans.size(), 4U);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].client, i + 1) << "tie broken out of shard order";
    // Fresh ids in merge order: the remap is deterministic too.
    EXPECT_EQ(spans[i].id, i + 1);
  }
}

// Replicated runs fold per-worker span tracers in replication order, so the
// merged span stream is bit-identical at any thread count.
TEST(ReplicatedSimTest, MergedSpansBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(65536, 65536);
    auto config = replication_config(sink.get());
    config.plan_clients = true;
    (void)sim::simulate_replicated(*scheme, input, config, 3, pool);
    return sink;
  };
  const auto serial = run(nullptr);
  util::TaskPool pool(4);
  const auto pooled = run(&pool);

  EXPECT_GT(serial->spans.recorded(), 0U);
  EXPECT_EQ(serial->spans.to_jsonl(), pooled->spans.to_jsonl());
  EXPECT_EQ(serial->spans.dropped(), pooled->spans.dropped());
}

// Fault-injected replicated runs obey the same contract: the injector's
// verdicts are pure functions of the plan seed, so damage, repairs and the
// fault trace merge bit-identically at any thread count.
TEST(ReplicatedSimTest, FaultRunsBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  fault::PlanSpec spec;
  spec.horizon_min = 120.0;
  spec.channels = 10;
  spec.outages = 2;
  spec.bursts = 2;
  spec.disk_stalls = 1;
  spec.server_restart = true;
  const fault::Injector injector{fault::Plan::generate(spec, 19),
                                 fault::RecoveryPolicy{.retry_budget = 1}};

  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(65536, 65536);
    auto config = replication_config(sink.get());
    config.injector = &injector;
    const auto replicated =
        sim::simulate_replicated(*scheme, input, config, 4, pool);
    return std::make_pair(replicated, std::move(sink));
  };
  const auto [serial, sink_serial] = run(nullptr);
  util::TaskPool pool(4);
  const auto [pooled, sink_pooled] = run(&pool);

  EXPECT_GT(serial.merged.fault_hits, 0U);
  EXPECT_EQ(serial.merged.fault_hits, pooled.merged.fault_hits);
  EXPECT_EQ(serial.merged.fault_repairs, pooled.merged.fault_repairs);
  EXPECT_EQ(serial.merged.fault_degraded, pooled.merged.fault_degraded);
  EXPECT_EQ(serial.merged.fault_penalty_minutes.samples(),
            pooled.merged.fault_penalty_minutes.samples());
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            pooled.merged.latency_minutes.samples());
  EXPECT_EQ(sink_serial->trace.to_jsonl(), sink_pooled->trace.to_jsonl());
  EXPECT_EQ(sink_serial->spans.to_jsonl(), sink_pooled->spans.to_jsonl());
  const auto ms = sink_serial->metrics.snapshot();
  const auto mp = sink_pooled->metrics.snapshot();
  EXPECT_EQ(ms.counters, mp.counters);
}

// The adaptive controller under a fault plan: forced demotions and
// restarts are epoch-boundary decisions on pure plan queries, so the
// replicated merge stays bit-identical too.
TEST(ReplicatedAdaptiveTest, FaultRunsBitIdenticalAtAnyThreadCount) {
  fault::PlanSpec spec;
  spec.horizon_min = 500.0;
  spec.channels = 10;
  spec.outages = 3;
  spec.mean_outage_min = 90.0;
  spec.server_restart = true;
  const fault::Injector injector{fault::Plan::generate(spec, 23)};

  const batching::MqlPolicy policy;
  ctrl::AdaptiveConfig config;
  config.horizon = core::Minutes{500.0};
  config.arrivals_per_minute = 2.0;
  config.injector = &injector;

  const auto serial =
      ctrl::simulate_adaptive_replicated(policy, config, 4, nullptr);
  util::TaskPool pool(4);
  const auto pooled =
      ctrl::simulate_adaptive_replicated(policy, config, 4, &pool);

  EXPECT_EQ(serial.merged.wait_minutes.samples(),
            pooled.merged.wait_minutes.samples());
  EXPECT_EQ(serial.merged.fault_forced_demotions,
            pooled.merged.fault_forced_demotions);
  EXPECT_EQ(serial.merged.fault_restarts, pooled.merged.fault_restarts);
  EXPECT_EQ(serial.merged.served_hot, pooled.merged.served_hot);
  EXPECT_EQ(serial.merged.served_tail, pooled.merged.served_tail);
  EXPECT_EQ(serial.wait_mean_ci95, pooled.wait_mean_ci95);
}

metro::FederationConfig federation_config(obs::Sink* sink) {
  metro::FederationConfig config;
  config.catalog_size = 48;
  config.replicate_top = 6;
  config.horizon = core::Minutes{150.0};
  config.seed = 21;
  config.sink = sink;
  // Region 2 goes dark mid-horizon so the failover/reroute paths (and their
  // spans) participate in the comparison, not just the local fast path.
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<fault::Episode> episodes;
    if (r == 2) {
      episodes.push_back(fault::Episode{fault::EpisodeKind::kChannelOutage,
                                        30.0, 100.0, -1, {}});
    }
    config.fault_plans.push_back(fault::Plan(std::move(episodes), 100 + r));
  }
  return config;
}

TEST(MetroFederationTest, FederationBitIdenticalAtAnyThreadCount) {
  const metro::Topology topology(
      {{3.0, 60}, {2.0, 60}, {1.5, 60}, {1.0, 60}}, 8, core::Minutes{0.5});
  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(16384, 16384);
    auto report = metro::simulate_federation_replicated(
        topology, federation_config(sink.get()), 2, pool);
    return std::pair(std::move(sink), std::move(report));
  };

  const auto [serial_sink, serial] = run(nullptr);
  util::TaskPool pool(4);
  const auto [pooled_sink, pooled] = run(&pool);

  EXPECT_EQ(serial.merged.arrivals, pooled.merged.arrivals);
  EXPECT_EQ(serial.merged.served_local, pooled.merged.served_local);
  EXPECT_EQ(serial.merged.rerouted, pooled.merged.rerouted);
  EXPECT_EQ(serial.merged.rejected, pooled.merged.rejected);
  EXPECT_EQ(serial.merged.link_mbits, pooled.merged.link_mbits);
  EXPECT_EQ(serial.merged.wait_minutes.samples(),
            pooled.merged.wait_minutes.samples());
  EXPECT_EQ(serial.wait_mean_ci95, pooled.wait_mean_ci95);
  ASSERT_EQ(serial.merged.regions.size(), pooled.merged.regions.size());
  for (std::size_t r = 0; r < serial.merged.regions.size(); ++r) {
    const auto& a = serial.merged.regions[r];
    const auto& b = pooled.merged.regions[r];
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served_local, b.served_local);
    EXPECT_EQ(a.rerouted_out, b.rerouted_out);
    EXPECT_EQ(a.rerouted_in, b.rerouted_in);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.link_mbits, b.link_mbits);
    EXPECT_EQ(a.wait_minutes.samples(), b.wait_minutes.samples());
  }
  EXPECT_EQ(serial_sink->metrics.to_openmetrics(),
            pooled_sink->metrics.to_openmetrics());
  EXPECT_EQ(serial_sink->spans.to_jsonl(), pooled_sink->spans.to_jsonl());
  EXPECT_EQ(serial_sink->trace.to_jsonl(), pooled_sink->trace.to_jsonl());
}

// Satellite of the federation PR: the serial-vs-pool pins above are special
// cases of a stronger property — folding K per-shard sinks in fixed shard
// order yields the same registry and span trace for ANY K, because counters
// and buckets add, gauges take maxima, and span ids are reassigned in merge
// order. Each work unit records a self-contained span tree (root + two
// children), so any contiguous partition keeps parent links shard-local and
// the id remap lands identically.
void record_shard_unit(obs::Registry& reg, obs::SpanTracer& spans,
                       std::size_t u) {
  reg.counter("events.total").add(1);
  reg.counter_family("events.by_lane", {"lane"})
      .with({std::to_string(u % 7)})
      .add(u % 3 + 1);
  reg.gauge("events.peak").max_of(static_cast<double>(u % 13));
  reg.sketch("events.size").observe(static_cast<double>((u * 37) % 16));
  reg.sketch("events.wait").observe(0.25 * static_cast<double>(u % 29) + 0.01);
  reg.sketch_family("events.lane_wait", {"lane"})
      .with({std::to_string(u % 3)})
      .observe(0.5 * static_cast<double>(u % 11) + 0.02);

  obs::Span root;
  root.start_min = static_cast<double>(u);
  root.end_min = static_cast<double>(u) + 3.0;
  root.phase = obs::SpanPhase::kRegionSession;
  root.client = u + 1;
  root.value = static_cast<double>(u % 5);
  const auto id = spans.record(root);
  obs::Span tune;
  tune.parent = id;
  tune.start_min = root.start_min;
  tune.end_min = root.start_min + 1.0;
  tune.phase = obs::SpanPhase::kTune;
  tune.client = u + 1;
  spans.record(tune);
  obs::Span hop;
  hop.parent = id;
  hop.start_min = root.start_min + 1.0;
  hop.end_min = root.start_min + 1.5;
  hop.phase = obs::SpanPhase::kReroute;
  hop.client = u + 1;
  spans.record(hop);
}

TEST(ShardMergeTest, KWayFoldIsIdenticalForAnyShardCount) {
  constexpr std::size_t kUnits = 120;
  const auto fold = [](std::size_t shards) {
    obs::Registry merged;
    obs::SpanTracer merged_spans(4096);
    for (std::size_t j = 0; j < shards; ++j) {
      obs::Registry reg;
      obs::SpanTracer spans(4096);
      const std::size_t begin = j * kUnits / shards;
      const std::size_t end = (j + 1) * kUnits / shards;
      for (std::size_t u = begin; u < end; ++u) {
        record_shard_unit(reg, spans, u);
      }
      merged.merge_from(reg);
      merged_spans.merge_from(spans);
    }
    return std::pair(merged.to_json() + "\n" + merged.to_openmetrics(),
                     merged_spans.to_jsonl());
  };

  const auto baseline = fold(1);
  for (const std::size_t shards : {2UL, 3UL, 5UL, 8UL}) {
    const auto folded = fold(shards);
    EXPECT_EQ(folded.first, baseline.first) << "K=" << shards;
    EXPECT_EQ(folded.second, baseline.second) << "K=" << shards;
  }
}

/// The CI95 half-width computed from scratch: sample (n - 1) standard
/// deviation of the replication means, times 1.96 / sqrt(n).
double hand_ci95(const std::vector<double>& means) {
  const auto n = static_cast<double>(means.size());
  double mean = 0.0;
  for (const double m : means) {
    mean += m / n;
  }
  double squares = 0.0;
  for (const double m : means) {
    squares += (m - mean) * (m - mean);
  }
  return 1.96 * std::sqrt(squares / (n - 1.0)) / std::sqrt(n);
}

// All three replicated runners report the same interval: the sample-stddev
// half-width over their replication means (sim::mean_ci95).
TEST(ReplicatedCi95Test, EveryRunnerUsesTheSampleInterval) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto sim_run = sim::simulate_replicated(
      *scheme, analysis::paper_design_input(300.0),
      replication_config(nullptr), 3, nullptr);
  const auto& sim_means = sim_run.replication_mean_latency.samples();
  ASSERT_EQ(sim_means.size(), 3U);
  EXPECT_NEAR(sim_run.latency_mean_ci95, hand_ci95(sim_means), 1e-12);

  ctrl::AdaptiveConfig adaptive;
  adaptive.horizon = core::Minutes{300.0};
  adaptive.arrivals_per_minute = 2.0;
  const auto ctrl_run = ctrl::simulate_adaptive_replicated(
      batching::MqlPolicy(), adaptive, 3, nullptr);
  const auto& ctrl_means = ctrl_run.replication_mean_wait.samples();
  ASSERT_EQ(ctrl_means.size(), 3U);
  EXPECT_NEAR(ctrl_run.wait_mean_ci95, hand_ci95(ctrl_means), 1e-12);

  const metro::Topology topology(
      {{3.0, 60}, {2.0, 60}, {1.5, 60}, {1.0, 60}}, 8, core::Minutes{0.5});
  const auto metro_run = metro::simulate_federation_replicated(
      topology, federation_config(nullptr), 3, nullptr);
  const auto& metro_means = metro_run.replication_mean_wait.samples();
  ASSERT_EQ(metro_means.size(), 3U);
  EXPECT_NEAR(metro_run.wait_mean_ci95, hand_ci95(metro_means), 1e-12);
}

// The runner itself: replication r runs with the (r+1)-th SplitMix64
// output and a private sink with the caller's capacities; results land in
// replication order and every private sink folds into the caller's.
TEST(ReplicateTest, SeedsSinksAndSlots) {
  util::TaskPool pool(3);
  obs::Sink into(5, 7);
  const auto results = sim::replicate(
      4, 99, &pool, &into, [](std::uint64_t seed, obs::Sink* sink) {
        sink->metrics.counter("runs").add();
        return std::pair{seed, sink->trace.capacity() * 100 +
                                   sink->spans.capacity()};
      });
  util::SplitMix64 stream(99);
  ASSERT_EQ(results.size(), 4U);
  for (const auto& [seed, capacities] : results) {
    EXPECT_EQ(seed, stream.next());
    EXPECT_EQ(capacities, 507U);
  }
  EXPECT_EQ(into.metrics.counter("runs").value(), 4U);

  // Without a sink to fold into, replications get none.
  const auto unobserved = sim::replicate(
      2, 99, nullptr, nullptr,
      [](std::uint64_t, obs::Sink* sink) { return sink == nullptr ? 1 : 0; });
  EXPECT_EQ(unobserved, (std::vector<int>{1, 1}));
}

// Every replicated engine refuses reps == 0 with the runner's one check.
TEST(ReplicateTest, EveryEngineRefusesZeroReplications) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  EXPECT_THROW((void)sim::simulate_replicated(
                   *scheme, analysis::paper_design_input(300.0),
                   replication_config(nullptr), 0, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)ctrl::simulate_adaptive_replicated(
                   batching::MqlPolicy(), ctrl::AdaptiveConfig{}, 0, nullptr),
               std::invalid_argument);
  const metro::Topology topology(
      {{3.0, 60}, {2.0, 60}, {1.5, 60}, {1.0, 60}}, 8, core::Minutes{0.5});
  EXPECT_THROW((void)metro::simulate_federation_replicated(
                   topology, federation_config(nullptr), 0, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace vodbcast
