#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstring>

#include "obs/sink.hpp"

namespace vodbcast::sim {

EventQueue::~EventQueue() {
  // Tear down the callables still pending; every heap entry owns one live
  // slot (free-list slots have a null ops and hold nothing).
  for (const auto& entry : heap_) {
    Slot& slot = pool_[entry.slot];
    slot.ops->destroy(slot.storage);
    slot.ops = nullptr;
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t handle = free_head_;
    Slot& slot = pool_[handle];
    VB_ASSERT(slot.ops == nullptr);  // free-list slots must be dead
    free_head_ = slot.next_free;
    return handle;
  }
  VB_EXPECTS_MSG(pool_.size() < kNilSlot, "event slab exhausted");
  pool_.emplace_back();
  if (sink_ != nullptr) {
    slab_slots_->max_of(static_cast<double>(pool_.size()));
  }
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t handle) noexcept {
  Slot& slot = pool_[handle];
  slot.ops = nullptr;
#ifndef NDEBUG
  // Poison freed capture bytes so use-after-free reads a recognizable
  // pattern instead of a stale callable.
  std::memset(slot.storage, 0xDD, sizeof(slot.storage));
#endif
  slot.next_free = free_head_;
  free_head_ = handle;
}

void EventQueue::push_entry(SimTime at, std::uint32_t handle) {
  heap_.push_back(Entry{at, next_seq_++, handle});
  std::size_t i = heap_.size() - 1;
  const Entry inserted = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(inserted, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = inserted;
}

EventQueue::Entry EventQueue::pop_entry() noexcept {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t child = first + 1; child < end; ++child) {
        if (before(heap_[child], heap_[best])) {
          best = child;
        }
      }
      if (!before(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  const Entry entry = pop_entry();
  Slot& slot = pool_[entry.slot];
  VB_ASSERT(slot.ops != nullptr);  // heap entries reference live slots
  // Move the callable onto the stack and recycle its slot *before*
  // invoking: the callback may schedule, which may grow or reuse the pool.
  DetachedCallback cb;
  cb.ops = slot.ops;
  cb.ops->relocate(cb.storage, slot.storage);
  release_slot(entry.slot);
  now_ = entry.at;
  if (sink_ != nullptr) {
    fired_->add();
    const obs::ScopedTimer timer(callback_ns_);
    cb.ops->invoke(cb.storage);
  } else {
    cb.ops->invoke(cb.storage);
  }
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    step();
  }
  now_ = std::max(now_, until);
}

void EventQueue::note_arrival() {
  scheduled_->add();
  fired_->add();
}

void EventQueue::note_scheduled(bool spilled) {
  scheduled_->add();
  pending_peak_->max_of(static_cast<double>(heap_.size()));
  if (spilled) {
    capture_spill_->add();
  }
}

void EventQueue::attach_sink(obs::Sink* sink) {
  sink_ = sink;
  if (sink == nullptr) {
    scheduled_ = nullptr;
    fired_ = nullptr;
    capture_spill_ = nullptr;
    pending_peak_ = nullptr;
    slab_slots_ = nullptr;
    callback_ns_ = nullptr;
    return;
  }
  scheduled_ = &sink->metrics.counter("sim.event_queue.scheduled");
  fired_ = &sink->metrics.counter("sim.event_queue.fired");
  capture_spill_ = &sink->metrics.counter("sim.event_queue.capture_spill");
  pending_peak_ = &sink->metrics.gauge("sim.event_queue.pending_peak");
  slab_slots_ = &sink->metrics.gauge("sim.event_queue.slab_slots");
  callback_ns_ = &sink->metrics.sketch("sim.event_queue.callback_ns");
  slab_slots_->max_of(static_cast<double>(pool_.size()));
}

}  // namespace vodbcast::sim
