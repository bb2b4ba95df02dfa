// Discrete-event core: an allocation-free engine firing time-ordered
// callbacks.
//
// Drives all four campaign engines (sim::simulate, the scheduled-multicast
// server, ctrl::simulate_adaptive and metro::simulate_federation). Client
// arrivals never enter the queue: the arrival-merge run_until() pulls them
// lazily from the engine's request source and interleaves them with the
// queued server-side events, so memory is O(concurrently pending events),
// not O(arrivals). The hot path is built around two structures:
//
//   * an in-place 4-ary min-heap of POD `(time, seq, slot)` entries — a
//     sift touches a quarter of the levels of a binary heap and each level
//     is one cache line of children;
//   * a slab-allocated callback pool: each scheduled callable lives in a
//     fixed-size slot with a small-buffer region of `kInlineCaptureBytes`
//     (captures up to that size are stored in place; larger ones spill to
//     one heap box). Freed slots go on a free list and are recycled, so a
//     steady-state run performs no per-event allocation at all. In debug
//     builds freed slots are poisoned (0xDD) and slot liveness is asserted.
//
// step() *moves* the callback out of its slot onto the stack and recycles
// the slot before invoking, so callbacks may freely schedule new events
// (the pool may grow or be recycled under them).
//
// Determinism contract: events at equal times fire in insertion order
// (ties break on a monotonically increasing sequence number), which keeps
// runs deterministic for a fixed seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/contracts.hpp"

namespace vodbcast::obs {
struct Sink;
}  // namespace vodbcast::obs

namespace vodbcast::sim {

/// Simulation time in minutes (matching the paper's reporting unit).
using SimTime = double;

class EventQueue {
 public:
  /// Captures at most this large (and max_align_t-alignable, nothrow move
  /// constructible) are stored inline in their slab slot; anything bigger
  /// pays one heap box per event (counted by `sim.event_queue.capture_spill`
  /// when a sink is attached).
  static constexpr std::size_t kInlineCaptureBytes = 48;

  /// Type-erased fallback; any callable invocable as `fn()` is accepted
  /// directly by schedule() without this indirection.
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedules `fn` at absolute time `at`; `at` must not precede now().
  /// Accepts any callable invocable with no arguments; null callables
  /// (empty std::function, null function pointer) are rejected.
  template <typename F>
  void schedule(SimTime at, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>,
                  "event callback must be invocable with no arguments");
    VB_EXPECTS_MSG(at >= now_, "cannot schedule into the past");
    if constexpr (requires { fn == nullptr; }) {
      VB_EXPECTS_MSG(!(fn == nullptr), "null event callback");
    }
    constexpr bool kFitsInline = sizeof(Fn) <= kInlineCaptureBytes &&
                                 alignof(Fn) <= alignof(std::max_align_t) &&
                                 std::is_nothrow_move_constructible_v<Fn>;
    const std::uint32_t handle = acquire_slot();
    Slot& slot = pool_[handle];
    try {
      if constexpr (kFitsInline) {
        ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
        slot.ops = &InlineModel<Fn>::kOps;
      } else {
        ::new (static_cast<void*>(slot.storage))
            Fn*(new Fn(std::forward<F>(fn)));
        slot.ops = &BoxedModel<Fn>::kOps;
      }
      push_entry(at, handle);
    } catch (...) {
      if (slot.ops != nullptr) {
        slot.ops->destroy(slot.storage);
        slot.ops = nullptr;
      }
      release_slot(handle);
      throw;
    }
    if (sink_ != nullptr) {
      note_scheduled(!kFitsInline);
    }
  }

  /// Overload so the documented null-callback contract also covers a
  /// literal nullptr argument (a nullptr_t is not invocable).
  void schedule(SimTime at, std::nullptr_t) {
    VB_EXPECTS_MSG(at >= now_, "cannot schedule into the past");
    VB_EXPECTS_MSG(false, "null event callback");
  }

  /// Fires the earliest event; returns false when the queue is empty.
  bool step();

  /// Fires events while the earliest is at or before `until`, then advances
  /// the clock to `until` (even when the queue drained earlier — idle time
  /// passes too). Never moves time backwards: with `until < now()` nothing
  /// fires and now() is unchanged. Events after `until` stay pending and
  /// fire on a later step()/run_until().
  void run_until(SimTime until);

  /// Arrival merge: runs to `until` like run_until(until), interleaving a
  /// lazily pulled arrival stream with the queued events, so arrivals never
  /// occupy a heap entry or a slab slot and pending() stays the count of
  /// concurrently scheduled events.
  ///
  /// `next_arrival_at()` returns the time of the source's next arrival
  /// (kNoArrival once exhausted) without consuming it; `on_arrival()`
  /// consumes and handles that arrival. Arrival times must be
  /// nondecreasing and not precede now(). Arrivals after `until` are not
  /// consumed.
  ///
  /// Ordering rule: an arrival at time t fires after every queued event
  /// with `at < t` and before any event at t, with now() == t inside
  /// on_arrival() — the order the arrivals would have if all of them were
  /// scheduled before the run, holding the lowest sequence numbers. With a
  /// sink attached each arrival still counts as one scheduled and one fired
  /// event and is timed into `sim.event_queue.callback_ns`; the occupancy
  /// gauges ignore it.
  template <typename NextAt, typename OnArrival>
  void run_until(SimTime until, NextAt&& next_arrival_at,
                 OnArrival&& on_arrival) {
    for (SimTime at = next_arrival_at(); at <= until;
         at = next_arrival_at()) {
      VB_EXPECTS_MSG(at >= now_, "arrivals must be nondecreasing");
      while (!heap_.empty() && heap_.front().at < at) {
        step();
      }
      now_ = at;
      if (sink_ != nullptr) {
        note_arrival();
        const obs::ScopedTimer timer(callback_ns_);
        on_arrival();
      } else {
        on_arrival();
      }
    }
    run_until(until);
  }

  /// Sentinel `next_arrival_at()` result of an exhausted arrival source.
  static constexpr SimTime kNoArrival =
      std::numeric_limits<SimTime>::infinity();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Slots currently held by the slab pool (live + recycled); a high-water
  /// mark of concurrently pending events (merged arrivals never take a
  /// slot). Exposed for tests and sizing.
  [[nodiscard]] std::size_t slab_slots() const noexcept {
    return pool_.size();
  }

  /// Attaches an observability sink: schedule/fire counters, a queue-depth
  /// peak gauge, a per-callback cost sketch, the slab high-water gauge
  /// and the SBO-spill counter, all under "sim.event_queue.*". Merged
  /// arrivals count as scheduled and fired events and are timed, but the
  /// two occupancy gauges cover queued events only. Null
  /// detaches. With no sink attached the hot path pays one pointer test
  /// per operation.
  void attach_sink(obs::Sink* sink);

 private:
  /// Per-callable-type vtable; one static instance per instantiation.
  struct Ops {
    /// Move-constructs the stored callable at `dst` from `src`, then
    /// destroys the source (plain pointer copy for boxed callables).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*invoke)(void* obj);
    void (*destroy)(void* obj) noexcept;
  };

  /// One slab slot. `ops` is null while the slot sits on the free list;
  /// non-null means `storage` holds a live callable (or the box pointer).
  struct Slot {
    const Ops* ops = nullptr;
    std::uint32_t next_free = kNilSlot;
    alignas(std::max_align_t) std::byte storage[kInlineCaptureBytes];
  };

  /// POD heap entry: 4-ary min-heap ordering on (at, seq).
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  template <typename Fn>
  struct InlineModel {
    static void relocate(void* dst, void* src) noexcept {
      auto* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void invoke(void* obj) {
      (*std::launder(reinterpret_cast<Fn*>(obj)))();
    }
    static void destroy(void* obj) noexcept {
      std::launder(reinterpret_cast<Fn*>(obj))->~Fn();
    }
    static constexpr Ops kOps{&relocate, &invoke, &destroy};
  };

  template <typename Fn>
  struct BoxedModel {
    static Fn* box(void* obj) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(obj));
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn*(box(src));
    }
    static void invoke(void* obj) { (*box(obj))(); }
    static void destroy(void* obj) noexcept { delete box(obj); }
    static constexpr Ops kOps{&relocate, &invoke, &destroy};
  };

  /// Stack-side home of a callback moved out of its slot by step(); the
  /// destructor tears the callable down even when invoke() throws.
  struct DetachedCallback {
    const Ops* ops = nullptr;
    alignas(std::max_align_t) std::byte storage[kInlineCaptureBytes];

    DetachedCallback() = default;
    DetachedCallback(const DetachedCallback&) = delete;
    DetachedCallback& operator=(const DetachedCallback&) = delete;
    ~DetachedCallback() {
      if (ops != nullptr) {
        ops->destroy(storage);
      }
    }
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffU;

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t handle) noexcept;
  /// Pushes the heap entry and assigns the tie-breaking sequence number.
  void push_entry(SimTime at, std::uint32_t handle);
  [[nodiscard]] Entry pop_entry() noexcept;
  /// Cold path of schedule(): updates the sink instruments.
  void note_scheduled(bool spilled);
  /// Cold path of the arrival merge: counts one arrival as scheduled and
  /// fired.
  void note_arrival();

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> pool_;
  std::uint32_t free_head_ = kNilSlot;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;

  // Instrument handles are resolved once in attach_sink(); null when no
  // sink is attached.
  obs::Sink* sink_ = nullptr;
  obs::Counter* scheduled_ = nullptr;
  obs::Counter* fired_ = nullptr;
  obs::Counter* capture_spill_ = nullptr;
  obs::Gauge* pending_peak_ = nullptr;
  obs::Gauge* slab_slots_ = nullptr;
  obs::QuantileSketch* callback_ns_ = nullptr;
};

}  // namespace vodbcast::sim
