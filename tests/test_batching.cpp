#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "batching/hybrid.hpp"
#include "batching/queue_policies.hpp"
#include "batching/scheduled_multicast.hpp"
#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::batching {
namespace {

PendingRequest at(double t) {
  return PendingRequest{.arrival = core::Minutes{t}};
}

TEST(FcfsPolicyTest, PicksOldestHead) {
  WaitQueues queues(3);
  queues[0] = {at(5.0)};
  queues[1] = {at(2.0), at(3.0)};
  queues[2] = {at(4.0)};
  EXPECT_EQ(FcfsPolicy().pick(queues), 1U);
}

TEST(FcfsPolicyTest, EmptyQueuesGiveNothing) {
  WaitQueues queues(4);
  EXPECT_FALSE(FcfsPolicy().pick(queues).has_value());
}

TEST(MqlPolicyTest, PicksLongestQueue) {
  WaitQueues queues(3);
  queues[0] = {at(1.0)};
  queues[1] = {at(5.0), at(6.0), at(7.0)};
  queues[2] = {at(0.5), at(2.0)};
  EXPECT_EQ(MqlPolicy().pick(queues), 1U);
}

TEST(MqlPolicyTest, BreaksTiesByOldestHead) {
  WaitQueues queues(2);
  queues[0] = {at(4.0), at(5.0)};
  queues[1] = {at(1.0), at(9.0)};
  EXPECT_EQ(MqlPolicy().pick(queues), 1U);
}

std::vector<workload::Request> uniform_requests(double rate, double horizon,
                                                std::size_t num_videos,
                                                std::uint64_t seed) {
  std::vector<double> popularity(num_videos,
                                 1.0 / static_cast<double>(num_videos));
  workload::RequestGenerator gen(popularity, rate, util::Rng(seed));
  return gen.generate_until(core::Minutes{horizon});
}

TEST(ScheduledMulticastTest, AllServedWhenCapacityIsAmple) {
  // Little's law: ~0.2/min x 120 min = 24 concurrent streams on average;
  // 60 channels make an idle channel at every arrival all but certain.
  const auto requests = uniform_requests(0.2, 500.0, 4, 3);
  MulticastConfig config;
  config.channels = 60;
  config.horizon = core::Minutes{500.0 + 120.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 4, config);
  EXPECT_EQ(report.served, requests.size());
  EXPECT_EQ(report.reneged, 0U);
  // With a free channel on every arrival, nobody waits.
  EXPECT_DOUBLE_EQ(report.wait_minutes.max(), 0.0);
}

TEST(ScheduledMulticastTest, BatchingSharesStreams) {
  const auto requests = uniform_requests(5.0, 1000.0, 4, 7);
  MulticastConfig config;
  config.channels = 6;
  config.horizon = core::Minutes{1200.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 4, config);
  EXPECT_GT(report.served, 0U);
  // Under overload each stream must carry multiple subscribers.
  EXPECT_GT(report.batch_size.mean(), 2.0);
  EXPECT_LT(report.streams_started, report.served);
}

TEST(ScheduledMulticastTest, MqlBeatsFcfsOnThroughputWithReneging) {
  // MQL maximizes server throughput (the result the paper cites from Dan et
  // al.): with impatient subscribers and skewed demand, MQL spends each
  // freed channel on the longest queue before its members renege, while
  // FCFS spends streams on near-empty cold queues.
  workload::RequestGenerator gen(workload::zipf_probabilities(20), 6.0,
                                 util::Rng(11));
  const auto requests = gen.generate_until(core::Minutes{1500.0});
  MulticastConfig config;
  config.channels = 10;
  config.horizon = core::Minutes{1800.0};
  config.mean_patience = core::Minutes{10.0};
  const auto mql =
      simulate_scheduled_multicast(MqlPolicy(), requests, 20, config);
  const auto fcfs =
      simulate_scheduled_multicast(FcfsPolicy(), requests, 20, config);
  EXPECT_GT(mql.served, fcfs.served);
  EXPECT_LT(mql.reneged, fcfs.reneged);
}

TEST(ScheduledMulticastTest, RenegingDropsImpatientClients) {
  const auto requests = uniform_requests(6.0, 1000.0, 10, 13);
  MulticastConfig config;
  config.channels = 4;
  config.horizon = core::Minutes{1200.0};
  config.mean_patience = core::Minutes{5.0};
  const auto report =
      simulate_scheduled_multicast(FcfsPolicy(), requests, 10, config);
  EXPECT_GT(report.reneged, 0U);
  // Served waits are bounded by the patience distribution's realized values.
  EXPECT_GT(report.served, 0U);
}

TEST(ScheduledMulticastTest, UtilizationWithinBounds) {
  const auto requests = uniform_requests(2.0, 800.0, 5, 17);
  MulticastConfig config;
  config.channels = 10;
  config.horizon = core::Minutes{1000.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 5, config);
  EXPECT_GE(report.channel_utilization, 0.0);
  EXPECT_LE(report.channel_utilization, 1.2);  // tail streams may overhang
}

TEST(ScheduledMulticastTest, RejectsBadConfig) {
  MulticastConfig config;
  config.channels = 0;
  EXPECT_THROW((void)simulate_scheduled_multicast(MqlPolicy(), {}, 3, config),
               util::ContractViolation);
}

TEST(ScheduledMulticastTest, RejectsNonPositiveHorizon) {
  for (const double horizon :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    MulticastConfig config;
    config.horizon = core::Minutes{horizon};
    EXPECT_THROW(
        (void)simulate_scheduled_multicast(MqlPolicy(), {}, 3, config),
        std::invalid_argument)
        << "horizon " << horizon;
    HybridConfig hybrid;
    hybrid.horizon = core::Minutes{horizon};
    EXPECT_THROW((void)evaluate_hybrid(MqlPolicy(), hybrid),
                 std::invalid_argument)
        << "horizon " << horizon;
    hybrid.hot_titles = hybrid.catalog_size;  // no tail to simulate
    EXPECT_THROW((void)evaluate_hybrid(MqlPolicy(), hybrid),
                 std::invalid_argument)
        << "horizon " << horizon << ", whole catalog hot";
  }
}

TEST(ScheduledMulticastTest, RejectsOutOfRangeVideoIds) {
  MulticastConfig config;
  std::vector<workload::Request> requests{
      {.arrival = core::Minutes{1.0}, .video = 9}};
  EXPECT_THROW(
      (void)simulate_scheduled_multicast(MqlPolicy(), requests, 3, config),
      util::ContractViolation);
}

// The run walks the request vector with a cursor; an out-of-order stream
// is a caller error, rejected before any simulation work.
TEST(ScheduledMulticastTest, RejectsOutOfOrderArrivals) {
  MulticastConfig config;
  std::vector<workload::Request> requests{
      {.arrival = core::Minutes{2.0}, .video = 0},
      {.arrival = core::Minutes{1.0}, .video = 1}};
  EXPECT_THROW(
      (void)simulate_scheduled_multicast(MqlPolicy(), requests, 3, config),
      util::ContractViolation);
}

TEST(ScheduledMulticastTest, AcceptsEqualArrivalTimes) {
  MulticastConfig config;
  config.channels = 1;
  std::vector<workload::Request> requests{
      {.arrival = core::Minutes{1.0}, .video = 0},
      {.arrival = core::Minutes{1.0}, .video = 0}};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 3, config);
  // The first arrival dispatches before the second queues behind it.
  EXPECT_EQ(report.served, 2U);
  EXPECT_EQ(report.streams_started, 2U);
  EXPECT_EQ(report.batch_size.max(), 1.0);
}

// Pending events are channel releases only: the peak stays within the
// channel count however long the run.
TEST(ScheduledMulticastTest, PendingPeakFlatWhenHorizonDoubles) {
  std::vector<double> peaks;
  for (const double horizon : {600.0, 1200.0}) {
    obs::Sink sink;
    const auto requests = uniform_requests(4.0, horizon, 30, 3);
    MulticastConfig config;
    config.channels = 12;
    config.video_length = core::Minutes{90.0};
    config.horizon = core::Minutes{horizon};
    config.sink = &sink;
    (void)simulate_scheduled_multicast(MqlPolicy(), requests, 30, config);
    for (const auto& [name, value] : sink.metrics.snapshot().gauges) {
      if (name == "sim.event_queue.pending_peak") {
        peaks.push_back(value);
      }
    }
  }
  ASSERT_EQ(peaks.size(), 2U);
  EXPECT_LE(peaks[0], 12.0);
  EXPECT_EQ(peaks[1], peaks[0]);
}

}  // namespace
}  // namespace vodbcast::batching
