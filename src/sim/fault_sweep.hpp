// Per-client fault sweep over an SB client's reception plan.
//
// sim::simulate judges every planned download of every client against the
// run's fault plan, yet almost every download window touches no episode.
// The sweep finds exactly the downloads some episode overlaps on their own
// channel, without a scan over all K of them, so the caller runs
// fault::assess_download on those alone: every other download is clean by
// assess_download's own early-out, which draws nothing.
//
// It rests on the shape of the paper's two-loader client
// (client::plan_reception, Section 3.3):
//
//   * download i fetches segment i + 1 on logical channel i + 1, so an
//     episode scoped to channel c can only touch download c - 1;
//   * each loader fetches its groups' segments one at a time in file order,
//     so one loader's download windows are disjoint and sorted by start.
//     An unscoped episode (channel -1: every disk stall and restart, and
//     any outage or burst built without a channel) therefore overlaps a
//     contiguous run of each loader's downloads: the run begins at the first
//     download ending after the episode starts, found by binary search, and
//     ends at the first download that does not overlap.
//
// Windows are measured in the same double arithmetic as the simulator,
// static_cast<double>(tick) * D1, and tested with fault::Episode::overlaps.
// Both roundings are monotone, so the integral order of a loader's windows
// survives into minutes and the search is exact, instants included.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "client/plan_cache.hpp"
#include "fault/plan.hpp"
#include "series/segmentation.hpp"

namespace vodbcast::sim {

class FaultSweep {
 public:
  /// Splits `layout`'s downloads by loader and its episodes by scope, once
  /// per run. `plan` must outlive the sweep.
  FaultSweep(const series::SegmentLayout& layout, const fault::Plan& plan);

  /// Indices, ascending and distinct, of the downloads of `view` (a plan of
  /// client::plan_reception on this layout) that some episode of the plan
  /// overlaps on the download's channel. Valid until the next call.
  [[nodiscard]] std::span<const std::size_t> touched(
      client::PlanView view);

 private:
  /// Download `i`'s window [begin, end) in minutes.
  [[nodiscard]] double begin_min(const client::PlanView& view,
                                 std::size_t i) const {
    return static_cast<double>(view.download(i).start) * d1_;
  }
  [[nodiscard]] double end_min(const client::PlanView& view,
                               std::size_t i) const {
    return static_cast<double>(view.download(i).end()) * d1_;
  }

  struct Scoped {
    const fault::Episode* episode;
    std::size_t download;  ///< the one download on the episode's channel
  };

  double d1_;
  std::size_t downloads_;
  std::vector<Scoped> scoped_;
  std::vector<const fault::Episode*> unscoped_;
  /// Download indices of the Odd and the Even Loader, in start order.
  std::array<std::vector<std::size_t>, 2> loaders_;
  std::vector<std::size_t> touched_;
};

}  // namespace vodbcast::sim
