#include "obs/metrics.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/sink.hpp"
#include "obs/timer.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace vodbcast::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.max_of(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.max_of(4.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7U);
  // Sketch options are fixed by the first creation.
  QuantileSketch& s1 = registry.sketch("s", {.relative_accuracy = 0.02});
  QuantileSketch& s2 = registry.sketch("s", {.relative_accuracy = 0.05});
  EXPECT_EQ(&s1, &s2);
  EXPECT_DOUBLE_EQ(s2.relative_accuracy(), 0.02);
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterUpdates) {
  Registry registry;
  Counter& c = registry.counter("events");
  c.add(5);
  const Snapshot before = registry.snapshot();
  c.add(100);
  ASSERT_EQ(before.counters.size(), 1U);
  EXPECT_EQ(before.counters[0].first, "events");
  EXPECT_EQ(before.counters[0].second, 5U);  // unchanged by the later add
  const Snapshot after = registry.snapshot();
  EXPECT_EQ(after.counters[0].second, 105U);
}

TEST(RegistryTest, ConcurrentIncrementsAreLossless) {
  Registry registry;
  Counter& c = registry.counter("hot");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(RegistryTest, JsonExportIsStructurallySound) {
  Registry registry;
  registry.counter("sim.clients").add(3);
  registry.gauge("sim.rate").set(2.5);
  registry.sketch("sim.wait").observe(1.5);
  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sim.clients\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.rate\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"sim.wait\":{\"relative_accuracy\":0.01,\"count\":1,"
                      "\"sum\":1.5,\"min\":1.5,\"max\":1.5"),
            std::string::npos);
  EXPECT_EQ(json.find("histograms"), std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(RegistryTest, CsvExportListsEveryInstrument) {
  Registry registry;
  registry.counter("a").add(1);
  registry.gauge("b").set(2.0);
  registry.sketch("c").observe(1.0);
  const std::string csv = registry.to_csv();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a,value,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b,value,2"), std::string::npos);
  EXPECT_NE(csv.find("sketch,c,count,1"), std::string::npos);
  EXPECT_NE(csv.find("sketch,c,p50,1"), std::string::npos);
}

std::uint64_t counter_value(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

double gauge_value(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      return v;
    }
  }
  ADD_FAILURE() << "no gauge named " << name;
  return 0.0;
}

const Snapshot::SketchView* find_sketch(const Snapshot& snap,
                                       const std::string& name) {
  for (const auto& s : snap.sketches) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

TEST(RegistryMergeTest, CountersAddGaugesMaxSketchesBucketAdd) {
  Registry a;
  a.counter("served").add(10);
  a.gauge("peak").max_of(3.0);
  a.sketch("wait").observe(0.5);

  Registry b;
  b.counter("served").add(5);
  b.gauge("peak").max_of(7.0);
  b.sketch("wait").observe(5.0);
  b.sketch("wait").observe(0.25);

  a.merge_from(b);
  const auto snap = a.snapshot();
  EXPECT_EQ(counter_value(snap, "served"), 15U);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "peak"), 7.0);
  const auto* wait = find_sketch(snap, "wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 3U);
  EXPECT_DOUBLE_EQ(wait->sum, 5.75);
  EXPECT_DOUBLE_EQ(wait->min, 0.25);
  EXPECT_DOUBLE_EQ(wait->max, 5.0);
  // The same buckets as one sketch that saw all three samples.
  QuantileSketch whole;
  for (const double v : {0.5, 5.0, 0.25}) {
    whole.observe(v);
  }
  EXPECT_EQ(wait->buckets, whole.buckets());
  // The source is untouched.
  EXPECT_EQ(counter_value(b.snapshot(), "served"), 5U);
}

TEST(RegistryMergeTest, AdoptsInstrumentsMissingFromTarget) {
  Registry a;
  Registry b;
  b.counter("only_in_b").add(3);
  b.gauge("g").set(2.5);
  b.sketch("s", {.relative_accuracy = 0.05}).observe(0.5);
  a.merge_from(b);
  const auto snap = a.snapshot();
  EXPECT_EQ(counter_value(snap, "only_in_b"), 3U);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "g"), 2.5);
  const auto* s = find_sketch(snap, "s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1U);
  EXPECT_DOUBLE_EQ(s->relative_accuracy, 0.05);  // adopted with b's shape
}

TEST(RegistryMergeTest, RejectsMismatchedSketchAccuracy) {
  Registry a;
  a.sketch("s", {.relative_accuracy = 0.01}).observe(1.0);
  Registry b;
  b.sketch("s", {.relative_accuracy = 0.05}).observe(1.0);
  // Caller-facing validation, not a programming-contract check: the message
  // names the metric and the reason.
  try {
    a.merge_from(b);
    FAIL() << "mismatched accuracy must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_THAT(e.what(), testing::HasSubstr("metric 's'"));
    EXPECT_THAT(e.what(), testing::HasSubstr("relative accuracy mismatch"));
  }
  EXPECT_THROW(a.merge_from(a), util::ContractViolation);  // self-merge
}

TEST(RegistryMergeTest, RejectsKindClashAcrossRegistries) {
  Registry a;
  a.counter("m").add(1);
  Registry b;
  b.gauge("m").set(2.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(RegistryMergeTest, ShardOrderFoldIsDeterministic) {
  // Folding per-worker registries in a fixed shard order must give the same
  // snapshot regardless of how work was distributed across the shards.
  Registry shard1;
  Registry shard2;
  shard1.counter("n").add(1);
  shard2.counter("n").add(2);
  shard1.gauge("peak").max_of(4.0);
  shard2.gauge("peak").max_of(9.0);

  Registry fold_a;
  fold_a.merge_from(shard1);
  fold_a.merge_from(shard2);
  Registry fold_b;
  fold_b.merge_from(shard2);
  fold_b.merge_from(shard1);
  EXPECT_EQ(fold_a.to_json(), fold_b.to_json());
}

TEST(TracerMergeTest, ReRecordsRetainedEventsInTimeOrder) {
  Tracer worker(8);
  worker.record({.sim_time_min = 2.0,
                 .kind = EventKind::kTuneIn,
                 .channel = 1,
                 .video = 5,
                 .client = 1,
                 .value = 0.5});
  worker.record({.sim_time_min = 1.0,
                 .kind = EventKind::kClientArrival,
                 .channel = 0,
                 .video = 5,
                 .client = 1,
                 .value = 0.0});
  Tracer main(8);
  main.merge_from(worker);
  const auto events = main.events();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_DOUBLE_EQ(events[0].sim_time_min, 1.0);
  EXPECT_DOUBLE_EQ(events[1].sim_time_min, 2.0);
  EXPECT_EQ(main.dropped(), 0U);
}

TEST(ScopedTimerTest, RecordsOnceIntoTarget) {
  Registry registry;
  QuantileSketch& t = registry.sketch("t_ns");
  {
    const ScopedTimer timer(&t);
  }
  EXPECT_EQ(t.count(), 1U);
  EXPECT_GE(t.sum(), 0.0);
}

// Timings land in the same sketch kind ScopedTimer records into, so a
// multi-second run and a sub-microsecond lookup both read back within the
// sketch's 1%: no overflow bucket clamps the first, no interpolation
// across a 1 us bucket inflates the second.
TEST(ScopedTimerTest, LongAndShortTimingsReadBackWithinOnePercent) {
  static_assert(std::is_constructible_v<ScopedTimer, QuantileSketch*>);
  Registry registry;
  registry.sketch("sim.simulate_ns").observe(5e9);
  auto& hits = registry.sketch("client.plan_cache_hit_ns");
  for (int i = 0; i < 1000; ++i) {
    hits.observe(300.0);
  }
  const auto snap = registry.snapshot();
  const auto* run = find_sketch(snap, "sim.simulate_ns");
  const auto* hit = find_sketch(snap, "client.plan_cache_hit_ns");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(hit, nullptr);
  EXPECT_NEAR(run->p50, 5e9, 5e9 * 0.01);
  EXPECT_NEAR(run->p999, 5e9, 5e9 * 0.01);
  EXPECT_NEAR(hit->p50, 300.0, 300.0 * 0.01);
  EXPECT_NEAR(hit->p99, 300.0, 300.0 * 0.01);
  EXPECT_THAT(
      registry.to_openmetrics(),
      testing::HasSubstr("sim_simulate_ns{quantile=\"0.5\"} 5000000000\n"));
}

TEST(ScopedTimerTest, NullTargetIsANoOp) {
  const ScopedTimer timer(nullptr);  // must not crash or allocate
}

// Null-sink zero-effect: the same seeded simulation must produce an
// identical report with and without observability attached.
TEST(NullSinkTest, SimulationReportUnchangedBySink) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      core::MbitPerSec{300.0}, 10,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}};
  sim::SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.arrivals_per_minute = 2.0;
  config.plan_clients = true;

  const auto plain = sim::simulate(sb, input, config);

  Sink sink;
  config.sink = &sink;
  const auto observed = sim::simulate(sb, input, config);

  EXPECT_EQ(plain.clients_served, observed.clients_served);
  EXPECT_EQ(plain.jitter_events, observed.jitter_events);
  EXPECT_EQ(plain.max_concurrent_downloads,
            observed.max_concurrent_downloads);
  EXPECT_DOUBLE_EQ(plain.latency_minutes.mean(),
                   observed.latency_minutes.mean());
  EXPECT_DOUBLE_EQ(plain.latency_minutes.max(),
                   observed.latency_minutes.max());

  // And the sink actually saw the run.
  const auto snap = sink.metrics.snapshot();
  bool found_clients = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "sim.clients_served") {
      EXPECT_EQ(value, observed.clients_served);
      found_clients = true;
    }
  }
  EXPECT_TRUE(found_clients);
  EXPECT_GT(sink.trace.recorded(), 0U);
}

}  // namespace
}  // namespace vodbcast::obs
