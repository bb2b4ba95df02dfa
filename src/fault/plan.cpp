#include "fault/plan.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::fault {

const char* to_string(EpisodeKind kind) noexcept {
  switch (kind) {
    case EpisodeKind::kChannelOutage:
      return "channel_outage";
    case EpisodeKind::kLossBurst:
      return "loss_burst";
    case EpisodeKind::kDiskStall:
      return "disk_stall";
    case EpisodeKind::kServerRestart:
      return "server_restart";
  }
  return "unknown";
}

double Episode::overlap_min(double a, double b) const noexcept {
  const double lo = std::max(a, start_min);
  const double hi = std::min(b, end_min);
  return std::max(0.0, hi - lo);
}

std::optional<PlanSpec> parse_plan_spec(std::string_view text) {
  PlanSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view pair =
        text.substr(pos, comma == std::string_view::npos ? comma : comma - pos);
    pos = comma == std::string_view::npos ? text.size() : comma + 1;
    if (pair.empty()) {
      continue;
    }
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return std::nullopt;
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string value(pair.substr(eq + 1));
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || v < 0.0) {
      return std::nullopt;
    }
    if (key == "outages") {
      spec.outages = static_cast<std::size_t>(v);
    } else if (key == "bursts") {
      spec.bursts = static_cast<std::size_t>(v);
    } else if (key == "stalls") {
      spec.disk_stalls = static_cast<std::size_t>(v);
    } else if (key == "restart") {
      spec.server_restart = v != 0.0;
    } else if (key == "mean_outage") {
      spec.mean_outage_min = v;
    } else if (key == "mean_burst") {
      spec.mean_burst_min = v;
    } else if (key == "mean_stall") {
      spec.mean_stall_min = v;
    } else if (key == "loss_bad") {
      if (v > 1.0) {
        return std::nullopt;
      }
      spec.burst.loss_bad = v;
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

Plan::Plan(std::vector<Episode> episodes, std::uint64_t seed)
    : episodes_(std::move(episodes)), seed_(seed) {
  for (const auto& e : episodes_) {
    VB_EXPECTS(e.end_min >= e.start_min);
    // Stalls and restarts hit every channel; the window queries (and
    // assess_download's early-out) rely on that.
    VB_EXPECTS_MSG(e.channel == -1 || (e.kind != EpisodeKind::kDiskStall &&
                                       e.kind != EpisodeKind::kServerRestart),
                   "disk stalls and server restarts are not channel-scoped");
  }
  std::stable_sort(episodes_.begin(), episodes_.end(),
                   [](const Episode& a, const Episode& b) {
                     return a.start_min < b.start_min;
                   });
  int largest_scoped = -1;
  for (const auto& e : episodes_) {
    largest_scoped = std::max(largest_scoped, e.channel);
  }
  by_channel_.resize(static_cast<std::size_t>(largest_scoped + 1));
  for (std::size_t i = 0; i < episodes_.size(); ++i) {
    const int ch = episodes_[i].channel;
    if (ch < 0) {
      unscoped_.push_back(i);
      for (auto& list : by_channel_) {
        list.push_back(i);
      }
    } else {
      by_channel_[static_cast<std::size_t>(ch)].push_back(i);
    }
  }
}

Plan Plan::generate(const PlanSpec& spec, std::uint64_t seed) {
  VB_EXPECTS(spec.horizon_min > 0.0);
  VB_EXPECTS(spec.channels >= 1);
  // One derived substream per kind, in declaration order, so the spec's
  // counts are independent dials: outage draws never move burst draws.
  util::SplitMix64 split(seed);
  util::Rng outage_rng(split.next());
  util::Rng burst_rng(split.next());
  util::Rng stall_rng(split.next());
  util::Rng restart_rng(split.next());

  std::vector<Episode> episodes;
  episodes.reserve(spec.outages + spec.bursts + spec.disk_stalls +
                   (spec.server_restart ? 1 : 0));
  const auto window = [&spec](util::Rng& rng, double mean) {
    const double start = rng.next_double() * spec.horizon_min;
    const double duration = rng.next_exponential(1.0 / mean);
    return std::pair<double, double>{
        start, std::min(start + duration, spec.horizon_min)};
  };
  for (std::size_t i = 0; i < spec.outages; ++i) {
    const auto [start, end] = window(outage_rng, spec.mean_outage_min);
    episodes.push_back(Episode{
        .kind = EpisodeKind::kChannelOutage,
        .start_min = start,
        .end_min = end,
        .channel =
            1 + static_cast<int>(outage_rng.next_below(
                    static_cast<std::uint64_t>(spec.channels))),
    });
  }
  for (std::size_t i = 0; i < spec.bursts; ++i) {
    const auto [start, end] = window(burst_rng, spec.mean_burst_min);
    episodes.push_back(Episode{
        .kind = EpisodeKind::kLossBurst,
        .start_min = start,
        .end_min = end,
        .channel =
            1 + static_cast<int>(burst_rng.next_below(
                    static_cast<std::uint64_t>(spec.channels))),
        .burst = spec.burst,
    });
  }
  for (std::size_t i = 0; i < spec.disk_stalls; ++i) {
    const auto [start, end] = window(stall_rng, spec.mean_stall_min);
    episodes.push_back(Episode{
        .kind = EpisodeKind::kDiskStall,
        .start_min = start,
        .end_min = end,
        .channel = -1,
    });
  }
  if (spec.server_restart) {
    const double at = restart_rng.next_double() * spec.horizon_min;
    episodes.push_back(Episode{
        .kind = EpisodeKind::kServerRestart,
        .start_min = at,
        .end_min = at,
        .channel = -1,
    });
  }
  return Plan(std::move(episodes), seed);
}

std::size_t Plan::first_hit(EpisodeKind kind, double a, double b,
                            int ch) const noexcept {
  for (const std::size_t i : episodes_on(ch)) {
    const auto& e = episodes_[i];
    if (e.kind == kind && e.overlaps(a, b)) {
      return i;
    }
  }
  return npos;
}

bool Plan::outage_free(double a, double b, int ch) const noexcept {
  return first_hit(EpisodeKind::kChannelOutage, a, b, ch) == npos &&
         first_hit(EpisodeKind::kServerRestart, a, b, ch) == npos;
}

double Plan::stall_overlap(double a, double b) const noexcept {
  double total = 0.0;
  for (const auto& e : episodes_) {
    if (e.kind == EpisodeKind::kDiskStall) {
      total += e.overlap_min(a, b);
    }
  }
  return total;
}

}  // namespace vodbcast::fault
