// Structured event tracer: a bounded ring buffer of typed simulation events.
//
// The simulator and batching substrate record what happened (client arrived,
// tuned in, download started, channel slot fired, batch dispatched) as fixed
// -size PODs; nothing is formatted until export. When the ring fills, the
// oldest events are overwritten and `dropped()` counts the loss, so tracing
// can stay on for arbitrarily long runs with bounded memory.
//
// Exports:
//   * JSONL — one JSON object per line, ordered by simulation time
//     (stable across equal times), for jq/pandas consumption;
//   * Chrome trace-event JSON — loads in chrome://tracing / Perfetto.
//     One simulated minute is rendered as one second of trace time.
//
// Claim-then-fill: a writer that knows how many records it will emit but
// not yet whether any survive can reserve(n) their positions — recorded()
// advances exactly as n record() calls would — and later fill() only the
// positions still retained(). Each filled position lands in the slot
// record() would have used, so the ring's contents and drop count match an
// eager writer's.
//
// The tracer is single-writer: the discrete-event simulations that feed it
// are single-threaded. (Metrics, by contrast, are thread-safe.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::obs {

enum class EventKind : std::uint8_t {
  kClientArrival,          ///< subscriber pressed play
  kTuneIn,                 ///< joined a segment-1 broadcast; value = wait min
  kSegmentDownloadStart,   ///< value = download duration, minutes
  kSegmentDownloadEnd,
  kJitter,                 ///< a reception plan missed a deadline
  kChannelSlotStart,       ///< a periodic broadcast transmission began
  kBatchFire,              ///< scheduled multicast dispatched; value = batch size
  kRenege,                 ///< a waiting subscriber abandoned the queue
  kRealloc,                ///< control epoch re-solved; value = hot-set size
  kPromote,                ///< title entered periodic broadcast
  kDemote,                 ///< title left broadcast; its channels start draining
  kDrainComplete,          ///< drained channels handed to the tail; value = drain minutes
  kFaultEpisode,           ///< injected fault episode began; value = episode index
  kFaultHit,               ///< a session's download overlapped an episode; value = episode index
  kRepair,                 ///< damage healed (FEC / catch-up); value = wait penalty, minutes
  kFaultDegraded,          ///< damage survived the retry budget; value = episode index
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// One recorded event. Fields not meaningful for a kind stay zero.
struct TraceEvent {
  double sim_time_min = 0.0;   ///< simulation clock, minutes
  EventKind kind = EventKind::kClientArrival;
  std::int32_t channel = 0;    ///< logical channel / loader / segment index
  std::uint64_t video = 0;
  std::uint64_t client = 0;    ///< per-run client ordinal (0 = n/a)
  double value = 0.0;          ///< kind-specific payload (see enum)
};

class Tracer {
 public:
  /// Preconditions: capacity >= 1.
  explicit Tracer(std::size_t capacity = 65536);

  void record(const TraceEvent& event) noexcept {
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[cursor_] = event;
    }
    if (++cursor_ == capacity_) {
      cursor_ = 0;
    }
    ++recorded_;
  }

  /// Claims the next `n` positions without writing them: recorded() and
  /// dropped() advance as if `n` events had been recorded. While the ring
  /// is not yet full it grows by up to `n` default events, which fill()
  /// must overwrite before the ring is read. Returns the first claimed
  /// ordinal (ordinals count from 0 in recording order). Strong exception
  /// guarantee.
  std::uint64_t reserve(std::size_t n);
  /// True when the event at `ordinal` is still held by the ring.
  [[nodiscard]] bool retained(std::uint64_t ordinal) const noexcept {
    return ordinal < recorded_ && recorded_ - ordinal <= ring_.size();
  }
  /// Writes a claimed position, in the slot record() would have used.
  /// Preconditions: retained(ordinal).
  void fill(std::uint64_t ordinal, const TraceEvent& event) {
    VB_EXPECTS(retained(ordinal));
    ring_[slot(ordinal)] = event;
  }

  /// Re-records `other`'s retained events (in their time order) into this
  /// ring. The shard-merge companion to Registry::merge_from: per-worker
  /// tracers folded in a fixed shard order reproduce the same ring — and the
  /// same drop count — at any thread count.
  void merge_from(const Tracer& other);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Retained events ordered by sim time (stable for equal times, i.e.
  /// recording order breaks ties).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// One JSON object per line, same order as events().
  [[nodiscard]] std::string to_jsonl() const;
  /// Chrome trace-event format: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  [[nodiscard]] std::string to_chrome_trace() const;

  void clear() noexcept;

 private:
  /// The slot of a retained ordinal, counted back from the cursor, so a
  /// fill divides nothing: recorded_ - ordinal lies in [1, capacity_].
  [[nodiscard]] std::size_t slot(std::uint64_t ordinal) const noexcept {
    const auto back = static_cast<std::size_t>(recorded_ - ordinal);
    return cursor_ >= back ? cursor_ - back : cursor_ + capacity_ - back;
  }

  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t cursor_ = 0;  ///< slot of the next record: recorded_ % capacity_
  std::uint64_t recorded_ = 0;
};

}  // namespace vodbcast::obs
