// Causal span tracing: parent-linked, sim-time intervals with typed phases.
//
// Where the Tracer records *instants* (a client arrived, a batch fired), the
// SpanTracer records *intervals* and their causal structure: a `session` span
// covers a client's whole stay, with `queue_wait` / `tune` /
// `segment_download` / `playback` children tiling it, plus `retransmit` and
// `disk_stall` children hanging off the delivery path and `epoch` / `drain`
// spans parenting the sessions a control-plane reallocation touched. The
// tree is what lets tools/trace_analyze walk a per-session critical path and
// attribute each reported wait minute to a phase.
//
// Storage mirrors Tracer: a bounded ring overwritten oldest-first, with
// `dropped()` counting the loss, so span capture stays on for arbitrarily
// long runs with bounded memory. Single-writer, like Tracer, with the same
// claim-then-fill pair: reserve(n) claims the next n positions (and ids),
// fill() writes those still retained() in the slot record() would have
// used, so the ring, its ids and its drop count match an eager writer's.
//
// Exports:
//   * JSONL — one span per line, ordered by start time (ties keep recording
//     order), numbers printed round-trip exact so downstream sums match the
//     metric families bit-for-bit;
//   * Chrome trace-event JSON — "X" complete events plus flow arrows
//     (ph:"s"/"f") from each parent to its cross-channel children, so
//     chrome://tracing / Perfetto draws the causal hand-offs between the
//     session track and the per-segment channel tracks;
//   * folded stacks — `phase;childphase <count>` lines (self-time in integer
//     sim-microseconds) for flamegraph.pl / speedscope.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::obs {

enum class SpanPhase : std::uint8_t {
  kSession,          ///< a client's whole stay; value = reported wait, min
  kQueueWait,        ///< batching/tail admission queue; value = wait, min
  kTune,             ///< arrival → first segment-1 slot; value = wait, min
  kSegmentDownload,  ///< one planned download; channel = segment index
  kPlayback,         ///< consumption window, tune end → video end
  kRetransmit,       ///< lossy delivery recovered by the next repetition
  kDiskStall,        ///< a segment missed its playback deadline
  kEpoch,            ///< control-plane epoch; value = hot-set size
  kDrain,            ///< demoted title's channels draining; value = minutes
  kFaultEpisode,     ///< injected fault window; value = episode index
  kRepair,           ///< damage → heal window; value = wait penalty, minutes
  kRegionSession,    ///< a metro request's stay; value = penalized wait, min
  kReroute,          ///< cross-region spill hop; value = transit, minutes
};

[[nodiscard]] const char* to_string(SpanPhase phase) noexcept;

/// One recorded span. Fields not meaningful for a phase stay zero. `id` is
/// assigned by SpanTracer::record; `parent` 0 means root. `label`, when
/// non-empty, overrides the phase name in the chrome export (escaped).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start_min = 0.0;  ///< simulation clock, minutes
  double end_min = 0.0;
  SpanPhase phase = SpanPhase::kSession;
  std::int32_t channel = 0;  ///< logical channel / segment index
  std::uint64_t video = 0;
  std::uint64_t client = 0;  ///< per-run client ordinal (0 = n/a)
  double value = 0.0;        ///< phase-specific payload (see enum)
  std::string label;         ///< optional display name; empty → phase name
};

class SpanTracer {
 public:
  /// Preconditions: capacity >= 1.
  explicit SpanTracer(std::size_t capacity = 65536);

  /// Records a span, assigning it the next id (ids start at 1 and never
  /// repeat within a tracer). Returns the assigned id so callers can parent
  /// children onto it.
  std::uint64_t record(Span span);

  /// Claims the next `n` positions and their ids without writing them:
  /// recorded(), dropped() and the id counter advance as if `n` spans had
  /// been recorded. While the ring is not yet full it grows by up to `n`
  /// default spans, which fill() must overwrite before the ring is read.
  /// Returns the first claimed ordinal (ordinals count from 0 in recording
  /// order); the span at ordinal o has id o + 1, as record() assigns.
  /// Strong exception guarantee.
  std::uint64_t reserve(std::size_t n);
  /// True when the span at `ordinal` is still held by the ring.
  [[nodiscard]] bool retained(std::uint64_t ordinal) const noexcept {
    return ordinal < recorded_ && recorded_ - ordinal <= ring_.size();
  }
  /// Writes a claimed position with id ordinal + 1, in the slot record()
  /// would have used. Preconditions: retained(ordinal).
  void fill(std::uint64_t ordinal, Span span) {
    VB_EXPECTS(retained(ordinal));
    span.id = ordinal + 1;
    ring_[slot(ordinal)] = std::move(span);
  }

  /// Re-records `other`'s retained spans (in their start-time order, ties in
  /// record order) into this ring, remapping ids: each transferred span gets
  /// a fresh id here, and parent links among transferred spans follow the
  /// remap (a parent lost to the source ring's wraparound becomes 0 = root).
  /// The shard-merge companion to Tracer::merge_from: per-worker span
  /// tracers folded in a fixed shard order — shard index first, record index
  /// within a shard — reproduce the same ring, ids and drop count at any
  /// thread count.
  void merge_from(const SpanTracer& other);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Spans currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Total spans ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Spans lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - ring_.size();
  }

  /// Retained spans ordered by start time (stable: recording order breaks
  /// ties, which after a fixed-order merge means shard index then record
  /// index).
  [[nodiscard]] std::vector<Span> spans() const;

  /// One JSON object per line, same order as spans(). Times and values are
  /// printed with round-trip precision (%.17g) so consumers recompute the
  /// exact doubles the metric families saw.
  [[nodiscard]] std::string to_jsonl() const;
  /// Chrome trace-event format with flow arrows between causally-linked
  /// spans that sit on different channel tracks.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// Folded stacks (`session;tune 1234567`), self-time in integer
  /// sim-microseconds, lines sorted for determinism.
  [[nodiscard]] std::string to_folded() const;

  void clear() noexcept;

 private:
  /// The slot of a retained ordinal, counted back from the cursor, so a
  /// fill divides nothing: recorded_ - ordinal lies in [1, capacity_].
  [[nodiscard]] std::size_t slot(std::uint64_t ordinal) const noexcept {
    const auto back = static_cast<std::size_t>(recorded_ - ordinal);
    return cursor_ >= back ? cursor_ - back : cursor_ + capacity_ - back;
  }

  std::vector<Span> ring_;
  std::size_t capacity_;
  std::size_t cursor_ = 0;  ///< slot of the next record: recorded_ % capacity_
  std::uint64_t recorded_ = 0;  ///< also the last id handed out
};

}  // namespace vodbcast::obs
