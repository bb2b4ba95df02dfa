// Per-arrival heap allocation budget of the two streaming engines.
//
// A counting replacement of the global operator new measures how many heap
// allocations one whole run makes. Running the same campaign at horizon H
// and 4H quadruples the arrivals; if the per-arrival path allocated, the
// difference would grow with them. Setup costs (placement, router tables,
// plan cache, region ledgers) are the same at both horizons, so they
// cancel. The only allowed growth is a folded distribution's sketch array,
// which reallocates O(log range) times as new bucket indices appear.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "metro/federation.hpp"
#include "metro/topology.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace vodbcast {
namespace {

/// Slack for the sketch arrays' O(log) growth across the 4x longer run.
constexpr std::uint64_t kGrowthSlack = 32;

/// Heap allocations made while `run` executes.
template <class Run>
std::uint64_t allocations_during(Run&& run) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

metro::FederationConfig saturated_federation(double horizon_min) {
  metro::FederationConfig config;
  config.catalog_size = 100;
  config.replicate_top = 5;
  config.horizon = core::Minutes{horizon_min};
  config.seed = 7;
  config.stats_sample_cap = 256;
  return config;
}

TEST(HotPathAllocationTest, FederationRoutesWithoutPerArrivalAllocation) {
  // Tail budgets of 10..40 two-hour streams against hundreds of arrivals a
  // minute: homes saturate within minutes, so most tail arrivals take the
  // spill path and many are rejected.
  const metro::Topology topology(
      {{200.0, 70}, {150.0, 60}, {100.0, 50}, {50.0, 40}}, 4,
      core::Minutes{0.5});
  metro::FederationReport shorter;
  metro::FederationReport longer;
  const std::uint64_t at_h = allocations_during([&] {
    shorter = metro::simulate_federation(topology, saturated_federation(60.0));
  });
  const std::uint64_t at_4h = allocations_during([&] {
    longer = metro::simulate_federation(topology, saturated_federation(240.0));
  });
  ASSERT_GT(longer.arrivals, 3 * shorter.arrivals);
  // The spill path runs for tens of thousands of the extra arrivals.
  ASSERT_GT(longer.rerouted + longer.rejected,
            shorter.rerouted + shorter.rejected + 10000);
  EXPECT_LE(at_4h, at_h + kGrowthSlack)
      << "H: " << at_h << " allocations for " << shorter.arrivals
      << " arrivals; 4H: " << at_4h << " for " << longer.arrivals;
}

sim::SimulationConfig cached_streaming_run(double horizon_min) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{horizon_min};
  config.arrivals_per_minute = 10.0;
  config.seed = 5;
  config.plan_clients = true;
  config.plan_cache = true;
  config.stats_sample_cap = 256;
  return config;
}

TEST(HotPathAllocationTest, SimulateWithPlanCacheHasNoPerArrivalAllocation) {
  // SB:W=12 at 300 Mb/s repeats its schedule every 60 phases, so both runs
  // fill the plan cache completely and every later arrival is a hit.
  const schemes::SkyscraperScheme sb(12);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
  sim::SimulationReport shorter;
  sim::SimulationReport longer;
  const std::uint64_t at_h = allocations_during(
      [&] { shorter = sim::simulate(sb, input, cached_streaming_run(600.0)); });
  const std::uint64_t at_4h = allocations_during(
      [&] { longer = sim::simulate(sb, input, cached_streaming_run(2400.0)); });
  ASSERT_GT(longer.clients_served, 3 * shorter.clients_served);
  ASSERT_TRUE(longer.latency_minutes.folded());
  EXPECT_LE(at_4h, at_h + kGrowthSlack)
      << "H: " << at_h << " allocations for " << shorter.clients_served
      << " clients; 4H: " << at_4h << " for " << longer.clients_served;
}

}  // namespace
}  // namespace vodbcast
