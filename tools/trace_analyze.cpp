// trace_analyze: critical-path latency attribution over a --spans-out JSONL
// capture.
//
// Reads the causal span tree (session → queue_wait / tune /
// segment_download / playback, with retransmit / disk_stall / epoch / drain
// relatives) and answers *why* sessions waited, not just that they did:
//
//   1. per-session critical-path decomposition — walk the longest dependent
//      chain through each session's children and attribute every minute of
//      the session to the phase that owned it (a span's self-time is its
//      interval minus what its chosen children cover);
//   2. aggregate phase breakdown — total minutes, share, and p50/p95/p99 of
//      per-session phase time (obs::QuantileSketch, so tails carry the
//      sketch's relative-error guarantee);
//   3. top-k slowest sessions by reported wait, each with its dominant
//      wait phase;
//   4. --check: cross-checks the span-derived totals against a
//      --metrics-out JSON dump — session count must equal the
//      --sessions-metric counter, per-title critical-path wait sums must
//      match the --wait-family sketch sums within --rel-tol, and each
//      session's critical path must attribute >= 95% (--attribution-tol) of
//      its reported wait to enumerated phases. The two totals checks need
//      a span ring that dropped nothing; their failure messages quote the
//      dump's obs.spans.dropped, and the per-session attribution holds on
//      any ring.
//
//   trace_analyze SPANS.jsonl [--top N] [--check] [--metrics METRICS.json]
//                 [--sessions-metric sim.clients_served]
//                 [--wait-family sb.client.wait] [--rel-tol 1e-9]
//                 [--attribution-tol 0.05]
//
// Exit status: 0 = analysis ok (and all checks pass), 1 = check violation,
// 2 = usage/IO error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/quantile_sketch.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using vodbcast::util::json::Value;

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
  std::string phase;
  std::uint64_t video = 0;
  std::uint64_t client = 0;
  double value = 0.0;
};

/// Phases that explain *waiting* (vs. consuming); the dominant phase of a
/// slow session is picked among these first.
bool is_wait_phase(const std::string& phase) {
  return phase == "queue_wait" || phase == "tune" || phase == "retransmit" ||
         phase == "disk_stall";
}

struct Analyzer {
  std::vector<SpanRec> spans;  // in file order (= start order, ties stable)
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;

  void build() {
    index_of.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      index_of.emplace(spans[i].id, i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != 0 && index_of.count(spans[i].parent) != 0) {
        children[spans[i].parent].push_back(i);
      }
    }
  }

  /// Attributes the interval [lo, hi] of span `idx` to phases along the
  /// critical path: at each instant the child reaching furthest owns the
  /// time (recursively); instants no child covers are the span's own
  /// self-time. Greedy furthest-reach is the longest dependent chain for
  /// interval DAGs like ours.
  void decompose(std::size_t idx, double lo, double hi,
                 std::map<std::string, double>& out) const {
    constexpr double kEps = 1e-9;
    const auto it = children.find(spans[idx].id);
    const std::vector<std::size_t> none;
    const auto& kids = it != children.end() ? it->second : none;
    double t = lo;
    // Each iteration either consumes a child or jumps to the next child
    // start; both strictly advance t, so 2*kids+2 bounds the loop.
    for (std::size_t guard = 0; t < hi - kEps && guard < 2 * kids.size() + 2;
         ++guard) {
      std::size_t best = spans.size();
      double best_end = t;
      double next_start = hi;
      for (const auto ci : kids) {
        const auto& c = spans[ci];
        if (c.start <= t + kEps && c.end > best_end) {
          best = ci;
          best_end = c.end;
        } else if (c.start > t + kEps && c.start < next_start &&
                   c.end > c.start) {
          next_start = c.start;
        }
      }
      if (best != spans.size()) {
        const double child_hi = std::min(best_end, hi);
        decompose(best, t, child_hi, out);
        t = child_hi;
      } else {
        out[spans[idx].phase] += next_start - t;
        t = next_start;
      }
    }
    if (t < hi) {  // guard bailout: remainder is self-time
      out[spans[idx].phase] += hi - t;
    }
  }
};

int usage() {
  std::fputs(
      "usage: trace_analyze SPANS.jsonl [--top N] [--check]\n"
      "                     [--metrics METRICS.json]\n"
      "                     [--sessions-metric NAME] [--wait-family NAME]\n"
      "                     [--rel-tol X] [--attribution-tol X]\n"
      "  --top N              slowest sessions to list (default 10)\n"
      "  --check              cross-check span totals against --metrics;\n"
      "                       the session count and wait sums need a span\n"
      "                       ring that dropped nothing (obs.spans.dropped\n"
      "                       = 0), the per-session attribution holds on\n"
      "                       any ring\n"
      "  --metrics FILE       --metrics-out JSON dump of the same run\n"
      "  --sessions-metric M  counter that must equal the session count\n"
      "                       (default sim.clients_served)\n"
      "  --wait-family F      per-title wait sketch family whose sums must\n"
      "                       match (default sb.client.wait)\n"
      "  --rel-tol X          relative tolerance for sum agreement\n"
      "                       (default 1e-9)\n"
      "  --attribution-tol X  max unexplained fraction of a session's\n"
      "                       reported wait (default 0.05)\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const vodbcast::util::ArgParser args(argc, argv);
  if (args.positional_count() != 1) {
    return usage();
  }
  if (const auto flag = args.first_unknown(
          {"top", "check", "metrics", "sessions-metric", "wait-family",
           "rel-tol", "attribution-tol"})) {
    std::fprintf(stderr, "trace_analyze: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  const auto top_k = static_cast<std::size_t>(args.get_uint("top", 10));
  const bool check = args.has("check");
  const double rel_tol = args.get_double("rel-tol", 1e-9);
  const double attribution_tol = args.get_double("attribution-tol", 0.05);
  const std::string sessions_metric =
      args.get_string("sessions-metric", "sim.clients_served");
  const std::string wait_family =
      args.get_string("wait-family", "sb.client.wait");
  if (check && !args.has("metrics")) {
    std::fputs("trace_analyze: --check requires --metrics\n", stderr);
    return usage();
  }

  const auto read_file = [](const std::string& path,
                            std::string& out) -> bool {
    std::ifstream in(path);
    if (!in) {
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
  };

  const auto& path = args.positional(0);
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "trace_analyze: cannot read %s\n", path.c_str());
    return 2;
  }

  Analyzer an;
  try {
    for (const auto& line : vodbcast::util::json::parse_jsonl(text)) {
      an.spans.push_back(SpanRec{
          .id = static_cast<std::uint64_t>(line.at("id").as_number()),
          .parent =
              static_cast<std::uint64_t>(line.number_or("parent", 0.0)),
          .start = line.at("start").as_number(),
          .end = line.at("end").as_number(),
          .phase = line.at("phase").as_string(),
          .video = static_cast<std::uint64_t>(line.number_or("video", 0.0)),
          .client =
              static_cast<std::uint64_t>(line.number_or("client", 0.0)),
          .value = line.number_or("value", 0.0),
      });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analyze: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  an.build();

  struct SessionRow {
    std::size_t index;
    double wait_reported;
    double wait_attributed;
    std::map<std::string, double> phases;
  };
  std::vector<SessionRow> sessions;
  std::map<std::string, double> phase_total;
  std::map<std::string, vodbcast::obs::QuantileSketch> phase_sketch;
  std::map<std::uint64_t, double> title_wait_sum;
  double worst_unattributed = 0.0;
  std::size_t attribution_violations = 0;

  for (std::size_t i = 0; i < an.spans.size(); ++i) {
    if (an.spans[i].phase != "session") {
      continue;
    }
    SessionRow row{.index = i,
                   .wait_reported = an.spans[i].value,
                   .wait_attributed = 0.0,
                   .phases = {}};
    an.decompose(i, an.spans[i].start, an.spans[i].end, row.phases);
    for (const auto& [phase, minutes] : row.phases) {
      phase_total[phase] += minutes;
      phase_sketch[phase].observe(minutes);
      if (is_wait_phase(phase)) {
        row.wait_attributed += minutes;
      }
    }
    title_wait_sum[an.spans[i].video] += row.wait_attributed;
    // The acceptance bar: the enumerated phases must explain the reported
    // wait up to float noise / the allowed unexplained fraction.
    const double residual =
        std::abs(row.wait_attributed - row.wait_reported);
    const double allowed =
        std::max(1e-9, attribution_tol * std::abs(row.wait_reported));
    if (residual > allowed) {
      ++attribution_violations;
    }
    if (std::abs(row.wait_reported) > 0.0) {
      worst_unattributed =
          std::max(worst_unattributed, residual / row.wait_reported);
    }
    sessions.push_back(std::move(row));
  }

  if (sessions.empty()) {
    std::fprintf(stderr, "trace_analyze: %s holds no session spans"
                 " (%zu spans)\n",
                 path.c_str(), an.spans.size());
    return 2;
  }

  double grand_total = 0.0;
  for (const auto& [phase, minutes] : phase_total) {
    (void)phase;
    grand_total += minutes;
  }
  std::printf("trace_analyze: %zu spans, %zu sessions\n", an.spans.size(),
              sessions.size());
  std::printf("\nphase breakdown along session critical paths:\n");
  std::printf("  %-18s %12s %7s %8s %9s %9s %9s\n", "phase", "total_min",
              "share", "count", "p50", "p95", "p99");
  for (const auto& [phase, minutes] : phase_total) {
    const auto& sketch = phase_sketch.at(phase);
    std::printf("  %-18s %12.4f %6.1f%% %8llu %9.4f %9.4f %9.4f\n",
                phase.c_str(), minutes,
                grand_total > 0.0 ? 100.0 * minutes / grand_total : 0.0,
                static_cast<unsigned long long>(sketch.count()),
                sketch.quantile(0.50), sketch.quantile(0.95),
                sketch.quantile(0.99));
  }

  std::vector<std::size_t> order(sessions.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sessions[a].wait_reported >
                            sessions[b].wait_reported;
                   });
  std::printf("\ntop %zu slowest sessions (by reported wait):\n",
              std::min(top_k, order.size()));
  for (std::size_t rank = 0; rank < std::min(top_k, order.size()); ++rank) {
    const auto& row = sessions[order[rank]];
    const auto& span = an.spans[row.index];
    // Dominant phase: largest wait-phase share; overall largest otherwise.
    std::string dominant = "-";
    double dominant_minutes = -1.0;
    for (const auto& [phase, minutes] : row.phases) {
      if (is_wait_phase(phase) && minutes > dominant_minutes) {
        dominant = phase;
        dominant_minutes = minutes;
      }
    }
    if (dominant_minutes <= 0.0) {
      for (const auto& [phase, minutes] : row.phases) {
        if (minutes > dominant_minutes) {
          dominant = phase;
          dominant_minutes = minutes;
        }
      }
    }
    std::printf("  client %-8llu video %-4llu wait %8.4f min  dominant %s\n",
                static_cast<unsigned long long>(span.client),
                static_cast<unsigned long long>(span.video),
                row.wait_reported, dominant.c_str());
  }
  std::printf("\nattribution: worst unexplained wait fraction %.3g"
              " (%zu session(s) beyond tolerance %.2g)\n",
              worst_unattributed, attribution_violations, attribution_tol);

  std::uint64_t violations = attribution_violations > 0 ? 1u : 0u;
  if (check) {
    const auto metrics_path = *args.get("metrics");
    std::string metrics_text;
    if (!read_file(metrics_path, metrics_text)) {
      std::fprintf(stderr, "trace_analyze: cannot read %s\n",
                   metrics_path.c_str());
      return 2;
    }
    Value metrics;
    try {
      metrics = vodbcast::util::json::parse(metrics_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_analyze: %s: %s\n", metrics_path.c_str(),
                   e.what());
      return 2;
    }

    // The totals cover every session of the run, the spans only those the
    // ring kept: a totals failure on a ring that dropped spans says so.
    const Value* counters = metrics.find("counters");
    const double spans_dropped =
        counters != nullptr ? counters->number_or("obs.spans.dropped", 0.0)
                            : 0.0;
    char dropped_note[160];
    std::snprintf(dropped_note, sizeof dropped_note,
                  " (obs.spans.dropped = %.0f%s)", spans_dropped,
                  spans_dropped > 0.0
                      ? ": the totals need a span ring that dropped nothing"
                      : "");

    // Check 1: session count == the served-clients counter.
    const Value* served = counters != nullptr
                              ? counters->find(sessions_metric)
                              : nullptr;
    if (served == nullptr) {
      std::printf("CHECK FAIL: metrics dump has no counter '%s'\n",
                  sessions_metric.c_str());
      ++violations;
    } else if (static_cast<double>(sessions.size()) != served->as_number()) {
      std::printf("CHECK FAIL: %zu session spans but %s = %.0f%s\n",
                  sessions.size(), sessions_metric.c_str(),
                  served->as_number(), dropped_note);
      ++violations;
    } else {
      std::printf("check: session count matches %s = %zu\n",
                  sessions_metric.c_str(), sessions.size());
    }

    // Check 2: per-title critical-path wait sums vs. the sketch family.
    const Value* sketches = metrics.find("sketches");
    std::size_t series_checked = 0;
    std::size_t series_failed = 0;
    if (sketches != nullptr && sketches->is_object()) {
      const std::string prefix = wait_family + "{title=";
      for (const auto& [key, series] : sketches->as_object()) {
        if (key.rfind(prefix, 0) != 0 || key.back() != '}') {
          continue;
        }
        const auto title = static_cast<std::uint64_t>(
            std::stoull(key.substr(prefix.size())));
        const double family_sum = series.number_or("sum", 0.0);
        const auto it = title_wait_sum.find(title);
        const double span_sum = it != title_wait_sum.end() ? it->second : 0.0;
        const double denom = std::max(std::abs(family_sum),
                                      std::abs(span_sum));
        if (denom > 0.0 && std::abs(family_sum - span_sum) > rel_tol * denom) {
          std::printf("CHECK FAIL: title %llu wait sum: spans %.12g vs"
                      " %s %.12g%s\n",
                      static_cast<unsigned long long>(title), span_sum,
                      wait_family.c_str(), family_sum, dropped_note);
          ++series_failed;
          ++violations;
        }
        ++series_checked;
      }
    }
    if (series_checked == 0) {
      std::printf("CHECK FAIL: metrics dump has no '%s{title=...}' series\n",
                  wait_family.c_str());
      ++violations;
    } else if (series_failed == 0) {
      std::printf("check: per-title wait sums agree over %zu series"
                  " (rel tol %.2g)\n",
                  series_checked, rel_tol);
    }
    if (attribution_violations > 0) {
      std::printf("CHECK FAIL: %zu session(s) with unexplained wait beyond"
                  " tolerance\n",
                  attribution_violations);
    } else {
      std::printf("check: critical paths attribute every reported wait"
                  " (worst residual fraction %.3g)\n",
                  worst_unattributed);
    }
  }

  if (violations > 0) {
    std::printf("trace_analyze: FAILED\n");
    return 1;
  }
  std::printf("trace_analyze: ok\n");
  return 0;
}
