#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A wide equal-time burst exercises the 4-ary sift paths well past one
// node's worth of children.
TEST(EventQueueTest, LargeEqualTimeBurstKeepsInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    q.schedule(7.0, [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  std::vector<int> expected(1000);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

// FIFO order must survive slab recycling: fire a wave (returning every slot
// to the free list, which reverses their order), then schedule a fresh
// equal-time wave into the recycled slots.
TEST(EventQueueTest, EqualTimeOrderSurvivesSlabRecycling) {
  EventQueue q;
  std::vector<int> fired;
  for (int round = 0; round < 4; ++round) {
    const double at = static_cast<double>(round + 1);
    for (int i = 0; i < 32; ++i) {
      q.schedule(at, [&fired, round, i] { fired.push_back(round * 32 + i); });
    }
    while (q.step()) {
    }
  }
  std::vector<int> expected(4 * 32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
  // Recycling, not growth: four waves of 32 fit in 32 slots.
  EXPECT_EQ(q.slab_slots(), 32U);
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] { fired.push_back(1.0); });
  q.schedule(5.0, [&] { fired.push_back(5.0); });
  q.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1U);
}

// Pins the documented run_until contract: the clock advances to `until`
// even when the queue drains before the horizon (idle time passes), and
// leftover events survive for a later run (the scheduled-multicast server
// relies on both for its horizon accounting).
TEST(EventQueueTest, RunUntilAdvancesClockThroughIdleTime) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.run_until(10.0);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 10.0);  // not 1.0: idle time advanced too
}

TEST(EventQueueTest, RunUntilNeverMovesTimeBackwards) {
  EventQueue q;
  q.run_until(5.0);
  q.run_until(3.0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueueTest, RunUntilLeavesLaterEventsPendingAndFirable) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] { fired.push_back(1.0); });
  q.schedule(7.0, [&] { fired.push_back(7.0); });
  q.schedule(9.0, [&] { fired.push_back(9.0); });
  q.run_until(3.0);
  EXPECT_EQ(q.pending(), 2U);  // leftover-queue accounting
  q.run_until(8.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 7.0}));
  EXPECT_EQ(q.pending(), 1U);
  q.run_until(20.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 7.0, 9.0}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 4) {
      q.schedule(q.now() + 1.0, chain);
    }
  };
  q.schedule(0.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

// Scheduling at the *current* time from inside a callback is legal and the
// new event joins the back of the equal-time FIFO.
TEST(EventQueueTest, CallbackMayScheduleAtCurrentTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(2.0, [&] {
    fired.push_back(0);
    q.schedule(2.0, [&] { fired.push_back(2); });
  });
  q.schedule(2.0, [&] { fired.push_back(1); });
  q.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

// A deep schedule-from-inside chain grows the slab while callbacks are in
// flight (the pool must be safe to reallocate under a running callback).
TEST(EventQueueTest, CallbacksMayGrowThePoolWhileRunning) {
  EventQueue q;
  int count = 0;
  std::function<void()> fan = [&] {
    ++count;
    if (count < 200) {
      q.schedule(q.now() + 0.5, fan);
      q.schedule(q.now() + 1.0, [] {});
    }
  };
  q.schedule(0.0, fan);
  q.run_until(1e6);
  EXPECT_EQ(count, 200);
}

template <std::size_t N>
struct PaddedRecorder {
  std::vector<int>* out;
  int id;
  std::array<unsigned char, N> pad;
  void operator()() const {
    unsigned sum = 0;
    for (const auto b : pad) {
      sum += b;
    }
    // Every pad byte must survive the slab round-trip intact.
    ASSERT_EQ(sum, N * 7U);
    out->push_back(id);
  }
};

// Captures on both sides of the SBO threshold run correctly and in order.
TEST(EventQueueTest, CaptureSizesStraddleTheInlineThreshold) {
  PaddedRecorder<8> small{};
  PaddedRecorder<32> mid{};      // == 48 bytes with out+id: at the edge
  PaddedRecorder<48> large{};    // 64 bytes: spills to the heap box
  PaddedRecorder<240> larger{};  // far past the threshold
  static_assert(sizeof(small) <= EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(mid) == EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(large) > EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(larger) > EventQueue::kInlineCaptureBytes);

  EventQueue q;
  std::vector<int> fired;
  int id = 0;
  const auto arm = [&](auto proto) {
    proto.out = &fired;
    proto.id = id++;
    proto.pad.fill(7);
    q.schedule(1.0, proto);
  };
  for (int round = 0; round < 3; ++round) {
    arm(small);
    arm(large);
    arm(mid);
    arm(larger);
  }
  while (q.step()) {
  }
  std::vector<int> expected(static_cast<std::size_t>(id));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

// Move-only callables are supported (the slab moves, never copies).
TEST(EventQueueTest, MoveOnlyCallbacksAreMovedNotCopied) {
  EventQueue q;
  auto flag = std::make_unique<int>(41);
  int seen = 0;
  q.schedule(1.0, [flag = std::move(flag), &seen] { seen = *flag + 1; });
  while (q.step()) {
  }
  EXPECT_EQ(seen, 42);
}

// Destroying the queue releases the captures of never-fired events, for
// inline and boxed storage alike.
TEST(EventQueueTest, DestructorReleasesUnfiredCaptures) {
  const auto token = std::make_shared<int>(1);
  {
    EventQueue q;
    q.schedule(1.0, [token] {});                      // inline capture
    q.schedule(2.0, [token, pad = std::array<char, 64>{}] {
      (void)pad;
    });                                               // boxed capture
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A throwing callback propagates, its capture is destroyed, the slot is
// recycled and the queue remains usable.
TEST(EventQueueTest, ThrowingCallbackLeavesQueueConsistent) {
  const auto token = std::make_shared<int>(1);
  EventQueue q;
  bool survived = false;
  q.schedule(1.0, [token] { throw std::runtime_error("boom"); });
  q.schedule(2.0, [&survived] { survived = true; });
  EXPECT_THROW(q.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed despite the throw
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  while (q.step()) {
  }
  EXPECT_TRUE(survived);
}

TEST(EventQueueTest, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule(1.0, [] {}), util::ContractViolation);
}

TEST(EventQueueTest, RejectsNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, nullptr), util::ContractViolation);
  EXPECT_THROW(q.schedule(1.0, EventQueue::Callback{}),
               util::ContractViolation);
  using FnPtr = void (*)();
  EXPECT_THROW(q.schedule(1.0, FnPtr{nullptr}), util::ContractViolation);
  EXPECT_TRUE(q.empty());  // failed schedules leak no slots or entries
}

TEST(EventQueueTest, EmptyQueueStepReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SinkCountsTrafficSpillsAndSlabHighWater) {
  obs::Sink sink;
  EventQueue q;
  q.attach_sink(&sink);
  for (int i = 0; i < 6; ++i) {
    q.schedule(1.0, [] {});
  }
  q.schedule(2.0, [pad = std::array<char, 64>{}] { (void)pad; });
  while (q.step()) {
  }
  const auto snap = sink.metrics.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  };
  const auto gauge = [&](const std::string& name) -> double {
    for (const auto& [key, value] : snap.gauges) {
      if (key == name) {
        return value;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(counter("sim.event_queue.scheduled"), 7U);
  EXPECT_EQ(counter("sim.event_queue.fired"), 7U);
  EXPECT_EQ(counter("sim.event_queue.capture_spill"), 1U);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.pending_peak"), 7.0);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.slab_slots"), 7.0);
}

// ---------------------------------------------------------------------------
// Arrival merge: run_until(until, next_arrival_at, on_arrival)

/// A vector-backed arrival source for the merge driver.
struct ArrivalScript {
  std::vector<double> times;
  std::size_t cursor = 0;

  [[nodiscard]] double next_at() const {
    return cursor < times.size() ? times[cursor] : EventQueue::kNoArrival;
  }
};

TEST(EventQueueArrivalMergeTest, ArrivalFiresBeforeEventAtSameTime) {
  EventQueue q;
  std::vector<std::string> fired;
  q.schedule(2.0, [&] { fired.push_back("E2"); });
  q.schedule(1.5, [&] { fired.push_back("E1.5"); });
  ArrivalScript arrivals{.times = {1.0, 2.0, 3.0}};
  std::vector<double> now_in_handler;
  q.run_until(
      10.0, [&] { return arrivals.next_at(); },
      [&] {
        now_in_handler.push_back(q.now());
        fired.push_back("A" + std::to_string(arrivals.cursor));
        ++arrivals.cursor;
      });
  // Earlier events fire before an arrival; an event at the arrival's own
  // time fires after it.
  EXPECT_EQ(fired,
            (std::vector<std::string>{"A0", "E1.5", "A1", "E2", "A2"}));
  EXPECT_EQ(now_in_handler, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueueArrivalMergeTest, DrainsEventsUpToUntilAndLeavesLaterOnes) {
  EventQueue q;
  std::vector<std::string> fired;
  q.schedule(4.0, [&] { fired.push_back("E4"); });
  q.schedule(6.0, [&] { fired.push_back("E6"); });
  ArrivalScript arrivals{.times = {1.0, 5.0, 7.0}};
  q.run_until(
      5.0, [&] { return arrivals.next_at(); },
      [&] {
        fired.push_back("A" + std::to_string(arrivals.cursor));
        ++arrivals.cursor;
      });
  EXPECT_EQ(fired, (std::vector<std::string>{"A0", "E4", "A1"}));
  EXPECT_EQ(arrivals.cursor, 2U);  // the arrival past `until` is untouched
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1U);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(fired.back(), "E6");
}

// Events a handler schedules at the current time fire after every arrival
// sharing that time, as if the arrivals had been scheduled before the run.
TEST(EventQueueArrivalMergeTest, HandlerEventsAtNowFireAfterEqualArrivals) {
  EventQueue q;
  std::vector<std::string> fired;
  ArrivalScript arrivals{.times = {2.0, 2.0}};
  q.run_until(
      3.0, [&] { return arrivals.next_at(); },
      [&] {
        const auto id = std::to_string(arrivals.cursor++);
        fired.push_back("A" + id);
        q.schedule(q.now(), [&fired, id] { fired.push_back("E" + id); });
      });
  EXPECT_EQ(fired, (std::vector<std::string>{"A0", "A1", "E0", "E1"}));
}

TEST(EventQueueArrivalMergeTest, RejectsDecreasingArrivals) {
  EventQueue q;
  ArrivalScript arrivals{.times = {3.0, 1.0}};
  EXPECT_THROW(q.run_until(
                   10.0, [&] { return arrivals.next_at(); },
                   [&] { ++arrivals.cursor; }),
               util::ContractViolation);
}

// Differential: a random mix of arrivals and handler-scheduled events fires
// in the same order through the merge as with every arrival pre-scheduled.
TEST(EventQueueArrivalMergeTest, MatchesPreScheduledArrivals) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<double> times;
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
      // Quarter-minute grid: ties between arrivals and events are common.
      t += 0.25 * static_cast<double>(rng.next_below(3));
      times.push_back(t);
    }
    std::vector<double> delays;
    for (int i = 0; i < 200; ++i) {
      delays.push_back(0.25 * static_cast<double>(rng.next_below(5)));
    }
    const double until = t * 0.8;

    const auto run = [&](bool merged) {
      EventQueue q;
      std::vector<int> fired;
      const auto arrive = [&](int i) {
        fired.push_back(i);
        q.schedule(q.now() + delays[static_cast<std::size_t>(i)],
                   [&fired, i] { fired.push_back(-1 - i); });
      };
      if (merged) {
        ArrivalScript arrivals{.times = times};
        q.run_until(
            until, [&] { return arrivals.next_at(); },
            [&] { arrive(static_cast<int>(arrivals.cursor++)); });
      } else {
        for (std::size_t i = 0; i < times.size(); ++i) {
          q.schedule(times[i], [&arrive, i] { arrive(static_cast<int>(i)); });
        }
        q.run_until(until);
      }
      return fired;
    };
    EXPECT_EQ(run(true), run(false)) << "seed " << seed;
  }
}

TEST(EventQueueArrivalMergeTest, SinkCountsArrivalsButNotAsOccupancy) {
  obs::Sink sink;
  EventQueue q;
  q.attach_sink(&sink);
  q.schedule(0.5, [] {});
  ArrivalScript arrivals{.times = {1.0, 2.0, 3.0, 4.0}};
  q.run_until(
      5.0, [&] { return arrivals.next_at(); }, [&] { ++arrivals.cursor; });
  const auto snap = sink.metrics.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  };
  const auto gauge = [&](const std::string& name) -> double {
    for (const auto& [key, value] : snap.gauges) {
      if (key == name) {
        return value;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(counter("sim.event_queue.scheduled"), 5U);
  EXPECT_EQ(counter("sim.event_queue.fired"), 5U);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.pending_peak"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.slab_slots"), 1.0);
  std::uint64_t timed = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "sim.event_queue.callback_ns") {
      timed = h.count;
    }
  }
  EXPECT_EQ(timed, 5U);
}

}  // namespace
}  // namespace vodbcast::sim
