#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "schemes/pyramid.hpp"
#include "schemes/skyscraper.hpp"
#include "schemes/staggered.hpp"
#include "util/contracts.hpp"

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

}  // namespace
}  // namespace vodbcast::sim
