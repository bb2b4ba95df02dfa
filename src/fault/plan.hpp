// Deterministic fault plans: seeded schedules of typed failure episodes.
//
// A metropolitan deployment does not fail politely — channels go dark,
// links burst-lose, disks stall, servers restart. A fault::Plan is a
// reproducible schedule of such episodes, generated from a single
// SplitMix64 seed on the same determinism contract as the workload (PR 3):
// each episode kind draws from its own derived substream, so adding
// outages to a spec never shifts where the bursts land, and the same
// (spec, seed) pair yields the same plan on every machine and thread
// count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/loss.hpp"

namespace vodbcast::fault {

enum class EpisodeKind : std::uint8_t {
  kChannelOutage,  ///< a logical channel emits nothing during the window
  kLossBurst,      ///< Gilbert-Elliott override on one channel's packets
  kDiskStall,      ///< client disk write path stalls (all channels)
  kServerRestart,  ///< in-flight transmissions cut at `start_min`
};

[[nodiscard]] const char* to_string(EpisodeKind kind) noexcept;

/// One scheduled failure window. `channel` is the logical channel (the SB
/// segment index) the episode damages; -1 applies to every channel (disk
/// stalls and restarts are not channel-scoped). A restart is an instant:
/// start_min == end_min.
struct Episode {
  EpisodeKind kind = EpisodeKind::kChannelOutage;
  double start_min = 0.0;
  double end_min = 0.0;
  int channel = -1;
  net::GilbertElliottLoss::Params burst{};  ///< kLossBurst only

  /// Overlap with a half-open window [a, b); a restart (zero-length
  /// episode) overlaps when its instant falls inside.
  [[nodiscard]] bool overlaps(double a, double b) const noexcept {
    if (end_min > start_min) {
      return start_min < b && end_min > a;
    }
    return start_min >= a && start_min < b;
  }
  [[nodiscard]] bool hits_channel(int ch) const noexcept {
    return channel < 0 || channel == ch;
  }
  /// Minutes of [a, b) the episode covers.
  [[nodiscard]] double overlap_min(double a, double b) const noexcept;
};

/// Knobs for Plan::generate. Counts say how many episodes of each kind to
/// draw; starts are uniform over the horizon, durations exponential with
/// the configured means, channels uniform over [1, channels].
struct PlanSpec {
  double horizon_min = 240.0;
  int channels = 8;  ///< logical channels damage is spread over (1-based)
  std::size_t outages = 0;
  std::size_t bursts = 0;
  std::size_t disk_stalls = 0;
  bool server_restart = false;
  double mean_outage_min = 10.0;
  double mean_burst_min = 5.0;
  double mean_stall_min = 2.0;
  net::GilbertElliottLoss::Params burst{};  ///< params for generated bursts
};

/// Parses a compact `--fault-plan` spec: comma-separated key=value pairs
/// from {outages, bursts, stalls, restart, mean_outage, mean_burst,
/// mean_stall, loss_bad}, e.g. "outages=2,bursts=1,restart=1". Horizon and
/// channel count come from the run configuration, not the spec. Returns
/// nullopt on an unknown key or a malformed value.
[[nodiscard]] std::optional<PlanSpec> parse_plan_spec(std::string_view text);

class Plan {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// An empty plan: no episodes, seed 0.
  Plan() = default;

  /// A hand-built plan (episodes are sorted by start time; the sorted
  /// position is the episode's stable index in every metric and trace).
  /// The per-channel index behind episodes_on() is dense up to the largest
  /// scoped channel. Precondition: every disk stall and server restart has
  /// channel -1.
  Plan(std::vector<Episode> episodes, std::uint64_t seed);

  /// Generates a plan from `spec`. Determinism contract: the k-th episode
  /// kind (declaration order) draws starts/durations/channels from a
  /// `util::Rng` seeded with the (k+1)-th output of SplitMix64(seed).
  [[nodiscard]] static Plan generate(const PlanSpec& spec,
                                     std::uint64_t seed);

  [[nodiscard]] const std::vector<Episode>& episodes() const noexcept {
    return episodes_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] bool empty() const noexcept { return episodes_.empty(); }

  /// Indices, ascending, of the episodes that can hit channel `ch`: those
  /// scoped to `ch` plus every unscoped one. Exactly the episodes whose
  /// hits_channel(ch) holds, so a window query scans only these.
  [[nodiscard]] std::span<const std::size_t> episodes_on(int ch) const noexcept {
    if (ch >= 0 && static_cast<std::size_t>(ch) < by_channel_.size()) {
      return by_channel_[static_cast<std::size_t>(ch)];
    }
    return unscoped_;
  }

  /// Index of the first episode of `kind` overlapping [a, b) on `ch`;
  /// npos if none.
  [[nodiscard]] std::size_t first_hit(EpisodeKind kind, double a, double b,
                                      int ch) const noexcept;

  /// True when no outage or restart touches [a, b) on `ch` — the window a
  /// catch-up retry needs to be clean.
  [[nodiscard]] bool outage_free(double a, double b, int ch) const noexcept;

  /// Total minutes of [a, b) covered by disk-stall episodes.
  [[nodiscard]] double stall_overlap(double a, double b) const noexcept;

 private:
  std::vector<Episode> episodes_;
  std::uint64_t seed_ = 0;
  /// episodes_on(c) for c in [0, largest scoped channel]; any other channel
  /// is hit by the unscoped episodes alone.
  std::vector<std::vector<std::size_t>> by_channel_;
  std::vector<std::size_t> unscoped_;
};

}  // namespace vodbcast::fault
