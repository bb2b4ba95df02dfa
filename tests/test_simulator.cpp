#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/sink.hpp"
#include "schemes/pyramid.hpp"
#include "schemes/skyscraper.hpp"
#include "schemes/staggered.hpp"
#include "series/broadcast_series.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::sim {
namespace {

schemes::DesignInput paper_input(double bandwidth) {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{bandwidth},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
}

TEST(SimulatorTest, EmpiricalLatencyBoundedByClosedForm) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{300.0};
  config.arrivals_per_minute = 5.0;
  const auto report = simulate(sb, input, config);

  EXPECT_GT(report.clients_served, 1000U);
  EXPECT_LE(report.latency_minutes.max(),
            metrics.access_latency.v + 1e-9);
  // Uniform arrivals within a period average to about half the worst wait.
  EXPECT_NEAR(report.latency_minutes.mean(), metrics.access_latency.v / 2.0,
              metrics.access_latency.v * 0.1);
}

TEST(SimulatorTest, SkyscraperClientsAreJitterFreeWithBoundedBuffers) {
  const schemes::SkyscraperScheme sb(12);
  const auto input = paper_input(150.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{200.0};
  config.arrivals_per_minute = 3.0;
  config.plan_clients = true;
  const auto report = simulate(sb, input, config);

  EXPECT_EQ(report.jitter_events, 0U);
  EXPECT_LE(report.max_concurrent_downloads, 2);
  ASSERT_FALSE(report.buffer_peak_mbits.empty());
  EXPECT_LE(report.buffer_peak_mbits.max(), metrics.client_buffer.v + 1e-6);
}

// The paper's guarantees for SB clients, on seeded random configurations
// over the paper's widths: no wait beyond the access latency D1 (Table 1),
// at most two loaders, no jitter, and a buffer peak within the designed
// client buffer.
TEST(SimulatorTest, PaperBoundsHoldOnRandomConfigs) {
  util::Rng rng(1997);
  int checked = 0;
  for (const std::uint64_t width :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{5},
        std::uint64_t{12}, std::uint64_t{25}, std::uint64_t{52},
        std::uint64_t{105}, series::kUncapped}) {
    const schemes::SkyscraperScheme sb(width);
    for (int trial = 0; trial < 15; ++trial) {
      const schemes::DesignInput input{
          .server_bandwidth =
              core::MbitPerSec{60.0 + 6.0 * static_cast<double>(
                                                rng.next_below(100))},
          .num_videos = 1 + static_cast<int>(rng.next_below(10)),
          .video = core::VideoParams{
              core::Minutes{30.0 + static_cast<double>(rng.next_below(91))},
              core::MbitPerSec{1.5}},
      };
      const auto evaluation = sb.evaluate(input);
      if (!evaluation.has_value()) {
        continue;
      }
      SimulationConfig config;
      config.horizon =
          core::Minutes{60.0 + static_cast<double>(rng.next_below(181))};
      config.arrivals_per_minute =
          0.5 + 0.1 * static_cast<double>(rng.next_below(40));
      config.seed = rng.next_u64();
      config.plan_clients = true;
      const auto report = simulate(sb, input, config);
      const auto& metrics = evaluation->metrics;
      const std::string where = sb.name() + " at " +
                                std::to_string(input.server_bandwidth.v) +
                                " Mb/s, seed " + std::to_string(config.seed);
      ASSERT_GT(report.clients_served, 0U) << where;
      EXPECT_LE(report.latency_minutes.max(),
                metrics.access_latency.v * (1.0 + 1e-9))
          << where;
      EXPECT_LE(report.max_concurrent_downloads, 2) << where;
      EXPECT_EQ(report.jitter_events, 0U) << where;
      EXPECT_LE(report.buffer_peak_mbits.max(),
                metrics.client_buffer.v * (1.0 + 1e-9))
          << where;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100);
}

TEST(SimulatorTest, RejectsNonPositiveHorizon) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  for (const double horizon :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    SimulationConfig config;
    config.horizon = core::Minutes{horizon};
    try {
      (void)simulate(sb, input, config);
      ADD_FAILURE() << "horizon " << horizon << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("horizon"), std::string::npos);
    }
  }
}

TEST(SimulatorTest, SimulatedBufferPeakReachesTheBound) {
  // The closed-form bound must be tight: some client phase attains it.
  const schemes::SkyscraperScheme sb(5);
  const auto input = paper_input(150.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{400.0};
  config.arrivals_per_minute = 5.0;
  config.plan_clients = true;
  const auto report = simulate(sb, input, config);
  EXPECT_NEAR(report.buffer_peak_mbits.max(), metrics.client_buffer.v,
              metrics.client_buffer.v * 0.05);
}

TEST(SimulatorTest, PyramidLatencyFarBelowStaggered) {
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{300.0};
  config.arrivals_per_minute = 2.0;

  const auto pb = simulate(schemes::PyramidScheme(schemes::Variant::kA),
                           input, config);
  const auto stag = simulate(schemes::StaggeredScheme(), input, config);
  EXPECT_LT(pb.latency_minutes.mean() * 100.0, stag.latency_minutes.mean());
}

TEST(SimulatorTest, ReportsPeakServerRate) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(150.0);
  SimulationConfig config;
  config.horizon = core::Minutes{50.0};
  config.arrivals_per_minute = 1.0;
  const auto report = simulate(sb, input, config);
  EXPECT_NEAR(report.peak_server_rate.v, 150.0, 1e-6);
}

TEST(SimulatorTest, InfeasibleSchemeRejected) {
  const schemes::PyramidScheme pb(schemes::Variant::kB);
  const auto input = paper_input(40.0);
  SimulationConfig config;
  EXPECT_THROW((void)simulate(pb, input, config), util::ContractViolation);
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{100.0};
  const auto a = simulate(sb, input, config);
  const auto b = simulate(sb, input, config);
  EXPECT_EQ(a.clients_served, b.clients_served);
  EXPECT_DOUBLE_EQ(a.latency_minutes.mean(), b.latency_minutes.mean());
}

/// Reads one unlabeled gauge from `sink`'s registry; -1 when absent.
double gauge_value(const obs::Sink& sink, const std::string& name) {
  for (const auto& [key, value] : sink.metrics.snapshot().gauges) {
    if (key == name) {
      return value;
    }
  }
  return -1.0;
}

/// Sample count of one unlabeled sketch in `sink`'s registry; 0 if absent.
std::uint64_t sketch_count(const obs::Sink& sink, const std::string& name) {
  for (const auto& view : sink.metrics.snapshot().sketches) {
    if (view.name == name && view.labels.empty()) {
      return view.count;
    }
  }
  return 0;
}

// Every timed call leaves exactly one sample in its timing sketch: one run,
// and one reception plan per client, served from the cache or planned.
TEST(SimulatorTest, OneTimingSamplePerTimedCall) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  for (const bool plan_cache : {true, false}) {
    obs::Sink sink;
    SimulationConfig config;
    config.horizon = core::Minutes{120.0};
    config.arrivals_per_minute = 4.0;
    config.plan_clients = true;
    config.plan_cache = plan_cache;
    config.sink = &sink;
    const auto report = simulate(sb, input, config);
    ASSERT_GT(report.clients_served, 0U);
    EXPECT_EQ(sketch_count(sink, "sim.simulate_ns"), 1U);
    EXPECT_EQ(sketch_count(sink, "client.plan_cache_hit_ns") +
                  sketch_count(sink, "client.plan_reception_ns"),
              report.clients_served)
        << "plan_cache=" << plan_cache;
  }
}

// Arrivals stream through the event engine's arrival merge instead of
// waiting in its heap, so queue occupancy does not grow with the horizon.
TEST(SimulatorTest, PendingPeakFlatWhenHorizonDoubles) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  std::vector<double> peaks;
  std::vector<std::uint64_t> served;
  for (const double horizon : {300.0, 600.0}) {
    obs::Sink sink;
    SimulationConfig config;
    config.horizon = core::Minutes{horizon};
    config.arrivals_per_minute = 5.0;
    config.sink = &sink;
    served.push_back(simulate(sb, input, config).clients_served);
    peaks.push_back(gauge_value(sink, "sim.event_queue.pending_peak"));
    EXPECT_EQ(gauge_value(sink, "sim.event_queue.slab_slots"), 0.0);
  }
  EXPECT_GT(served[1], served[0] * 3 / 2);
  EXPECT_EQ(peaks[0], 0.0);
  EXPECT_EQ(peaks[1], peaks[0]);
}

/// `sink`'s retained spans in id order.
std::vector<obs::Span> spans_by_id(const obs::Sink& sink) {
  auto spans = sink.spans.spans();
  std::sort(spans.begin(), spans.end(),
            [](const obs::Span& a, const obs::Span& b) { return a.id < b.id; });
  return spans;
}

// Each client's records are claimed as one block per ring and only the
// retained ones are ever written, so a C-span ring must hold exactly the
// spans with id > recorded - C of the same run on a ring that drops
// nothing. Capacities are drawn at random, plus ones whose cut falls inside
// a client's block, under a dense fault plan so repair spans end blocks.
TEST(SimulatorTest, SpanRingIsTheSuffixOfTheUnboundedRun) {
  const schemes::SkyscraperScheme sb(12);
  const auto input = paper_input(300.0);
  const fault::Injector injector(fault::Plan::generate(
      fault::PlanSpec{.horizon_min = 240.0,
                      .channels = 20,
                      .outages = 12,
                      .bursts = 6,
                      .disk_stalls = 4,
                      .server_restart = true},
      23));
  constexpr std::size_t kUnbounded = std::size_t{1} << 20;
  struct Variant {
    bool plan_clients;
    bool plan_cache;
  };
  // Cached views are written at the end of the run; fresh plans and
  // unplanned clients (no downloads, no damage) at once.
  for (const auto [plan_clients, plan_cache] :
       {Variant{true, true}, Variant{true, false}, Variant{false, true}}) {
    SCOPED_TRACE(::testing::Message() << "plan_clients=" << plan_clients
                                      << " plan_cache=" << plan_cache);
    SimulationConfig config;
    config.horizon = core::Minutes{240.0};
    config.arrivals_per_minute = 8.0;
    config.seed = 31;
    config.plan_clients = plan_clients;
    config.plan_cache = plan_cache;
    config.injector = &injector;
    obs::Sink full(kUnbounded, kUnbounded);
    config.sink = &full;
    const auto report = simulate(sb, input, config);
    if (plan_clients) {
      ASSERT_GT(report.fault_repairs, 0U);
      ASSERT_GT(report.fault_degraded, 0U);
    }
    ASSERT_EQ(full.trace.dropped(), 0U);
    ASSERT_EQ(full.spans.dropped(), 0U);
    const auto all = spans_by_id(full);
    const std::uint64_t recorded = full.spans.recorded();
    ASSERT_EQ(all.size(), recorded);

    std::vector<std::size_t> capacities = {1, 2, 3, 7, 97};
    util::Rng rng(plan_clients * 2 + plan_cache + 1);
    for (int i = 0; i < 6; ++i) {
      capacities.push_back(1 + rng.next_below(recorded));
    }
    // Cuts just after a session span, and inside a client's downloads.
    for (int i = 0; i < 4; ++i) {
      const auto& pick = all[rng.next_below(all.size())];
      const std::uint64_t session = pick.parent == 0 ? pick.id : pick.parent;
      capacities.push_back(recorded - session);
      if (plan_clients) {
        capacities.push_back(recorded - session - 5);
      }
    }

    for (const std::size_t cap : capacities) {
      SCOPED_TRACE(::testing::Message() << "capacity=" << cap);
      const std::size_t trace_cap = 1 + rng.next_below(full.trace.recorded());
      obs::Sink ring(trace_cap, cap);
      config.sink = &ring;
      (void)simulate(sb, input, config);
      EXPECT_EQ(ring.trace.recorded(), full.trace.recorded());
      EXPECT_EQ(ring.trace.dropped(),
                full.trace.recorded() -
                    std::min<std::uint64_t>(trace_cap, full.trace.recorded()));
      EXPECT_EQ(ring.spans.recorded(), recorded);
      EXPECT_EQ(ring.spans.dropped(),
                recorded - std::min<std::uint64_t>(cap, recorded));
      const auto kept = spans_by_id(ring);
      const std::uint64_t first_id =
          recorded > cap ? recorded - cap + 1 : std::uint64_t{1};
      ASSERT_EQ(kept.size(), recorded - first_id + 1);
      for (std::size_t k = 0; k < kept.size(); ++k) {
        const auto& got = kept[k];
        const auto& want = all[static_cast<std::size_t>(first_id - 1) + k];
        ASSERT_EQ(got.id, want.id);
        EXPECT_EQ(got.parent, want.parent) << "span " << got.id;
        EXPECT_EQ(got.start_min, want.start_min) << "span " << got.id;
        EXPECT_EQ(got.end_min, want.end_min) << "span " << got.id;
        EXPECT_EQ(got.phase, want.phase) << "span " << got.id;
        EXPECT_EQ(got.channel, want.channel) << "span " << got.id;
        EXPECT_EQ(got.video, want.video) << "span " << got.id;
        EXPECT_EQ(got.client, want.client) << "span " << got.id;
        EXPECT_EQ(got.value, want.value) << "span " << got.id;
        EXPECT_EQ(got.label, want.label) << "span " << got.id;
      }
    }
  }
}

}  // namespace
}  // namespace vodbcast::sim
