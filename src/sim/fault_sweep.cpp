#include "sim/fault_sweep.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace vodbcast::sim {

FaultSweep::FaultSweep(const series::SegmentLayout& layout,
                       const fault::Plan& plan)
    : d1_(layout.unit_duration().v),
      downloads_(static_cast<std::size_t>(layout.segment_count())) {
  // plan_reception emits one download per segment, group by group in file
  // order, each group on the loader its parity names.
  std::size_t next = 0;
  for (const auto& group : layout.groups()) {
    VB_ASSERT(group.first_segment == static_cast<int>(next) + 1);
    auto& loader =
        loaders_[group.parity == series::GroupParity::kOdd ? 0 : 1];
    for (int k = 0; k < group.length; ++k) {
      loader.push_back(next++);
    }
  }
  VB_ASSERT(next == downloads_);
  for (const auto& e : plan.episodes()) {
    if (e.channel < 0) {
      unscoped_.push_back(&e);
    } else if (e.channel >= 1 &&
               static_cast<std::size_t>(e.channel) <= downloads_) {
      scoped_.push_back(
          Scoped{&e, static_cast<std::size_t>(e.channel) - 1});
    }
  }
}

std::span<const std::size_t> FaultSweep::touched(
    client::PlanView view) {
  VB_EXPECTS(view.download_count() == downloads_);
  touched_.clear();
  for (const auto& [episode, i] : scoped_) {
    if (episode->overlaps(begin_min(view, i), end_min(view, i))) {
      touched_.push_back(i);
    }
  }
  for (const fault::Episode* episode : unscoped_) {
    for (const auto& loader : loaders_) {
      // Every download before the first one ending after the episode starts
      // ends at or before it, so none of them overlaps.
      auto it = std::partition_point(
          loader.begin(), loader.end(), [&](std::size_t i) {
            return end_min(view, i) <= episode->start_min;
          });
      for (; it != loader.end() &&
             episode->overlaps(begin_min(view, *it), end_min(view, *it));
           ++it) {
        touched_.push_back(*it);
      }
    }
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  return touched_;
}

}  // namespace vodbcast::sim
