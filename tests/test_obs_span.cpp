#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {
namespace {

Span at(double start, double end, SpanPhase phase = SpanPhase::kSession,
        std::uint64_t parent = 0) {
  Span s;
  s.parent = parent;
  s.start_min = start;
  s.end_min = end;
  s.phase = phase;
  return s;
}

TEST(SpanTracerTest, RecordsUpToCapacity) {
  SpanTracer tracer(4);
  for (int i = 0; i < 3; ++i) {
    tracer.record(at(static_cast<double>(i), static_cast<double>(i) + 1.0));
  }
  EXPECT_EQ(tracer.size(), 3U);
  EXPECT_EQ(tracer.recorded(), 3U);
  EXPECT_EQ(tracer.dropped(), 0U);
}

TEST(SpanTracerTest, WraparoundKeepsNewestAndCountsDropped) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(at(static_cast<double>(i), static_cast<double>(i) + 1.0));
  }
  EXPECT_EQ(tracer.size(), 4U);
  EXPECT_EQ(tracer.recorded(), 10U);
  EXPECT_EQ(tracer.dropped(), 6U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_DOUBLE_EQ(spans.front().start_min, 6.0);
  EXPECT_DOUBLE_EQ(spans.back().start_min, 9.0);
}

TEST(SpanTracerTest, RejectsZeroCapacity) {
  EXPECT_THROW(SpanTracer(0), util::ContractViolation);
}

TEST(SpanTracerTest, IdsStartAtOneAndNeverRepeat) {
  SpanTracer tracer(2);
  EXPECT_EQ(tracer.record(at(0.0, 1.0)), 1U);
  EXPECT_EQ(tracer.record(at(1.0, 2.0)), 2U);
  // Overwrites drop old spans but never recycle ids.
  EXPECT_EQ(tracer.record(at(2.0, 3.0)), 3U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].id, 2U);
  EXPECT_EQ(spans[1].id, 3U);
}

TEST(SpanTracerTest, ReserveOnEmptyRingClaimsIdsFromOne) {
  SpanTracer tracer(4);
  EXPECT_EQ(tracer.reserve(2), 0U);
  EXPECT_EQ(tracer.size(), 2U);
  EXPECT_EQ(tracer.recorded(), 2U);
  EXPECT_TRUE(tracer.retained(1));
  EXPECT_FALSE(tracer.retained(2));
  // The next record() gets the id after the claimed ones.
  EXPECT_EQ(tracer.record(at(2.0, 3.0)), 3U);
  Span claimed = at(0.0, 1.0);
  claimed.id = 99;  // fill assigns the position's own id
  tracer.fill(0, claimed);
  tracer.fill(1, at(1.0, 2.0, SpanPhase::kTune, 1));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3U);
  EXPECT_EQ(spans[0].id, 1U);
  EXPECT_EQ(spans[1].id, 2U);
  EXPECT_EQ(spans[1].parent, 1U);
  EXPECT_EQ(spans[2].id, 3U);
}

TEST(SpanTracerTest, ReservePastCapacityCountsTheOverflowAsDropped) {
  SpanTracer tracer(3);
  tracer.record(at(0.0, 1.0));
  EXPECT_EQ(tracer.reserve(4), 1U);
  EXPECT_EQ(tracer.size(), 3U);
  EXPECT_EQ(tracer.recorded(), 5U);
  EXPECT_EQ(tracer.dropped(), 2U);
  EXPECT_FALSE(tracer.retained(1));
  EXPECT_TRUE(tracer.retained(2));
  EXPECT_THROW(tracer.fill(1, at(0.0, 1.0)), util::ContractViolation);
  EXPECT_THROW(tracer.fill(5, at(0.0, 1.0)), util::ContractViolation);
  EXPECT_EQ(tracer.record(at(5.0, 6.0)), 6U);
}

// Claim-then-fill against eager recording: ids, parent links, ring contents
// and drop counts all match, whatever the wrap offset of each claim.
TEST(SpanTracerTest, FilledClaimsMatchEagerRecordingAcrossTheWrap) {
  for (const std::size_t capacity : {1U, 2U, 3U, 5U, 7U, 16U, 64U}) {
    SpanTracer eager(capacity);
    SpanTracer claimed(capacity);
    struct Block {
      std::uint64_t first;
      std::size_t n;
      std::uint64_t parent;
      double t;
    };
    std::vector<Block> blocks;
    double t = 0.0;
    for (std::size_t round = 0; round < 12; ++round) {
      const auto parent = eager.record(at(t, t + 50.0));
      EXPECT_EQ(claimed.record(at(t, t + 50.0)), parent);
      const std::size_t n = 1 + (round * 5) % 9;
      blocks.push_back({claimed.reserve(n), n, parent, t});
      for (std::size_t i = 0; i < n; ++i) {
        const double s = t + static_cast<double>(n - i);
        eager.record(at(s, s + 1.0, SpanPhase::kSegmentDownload, parent));
      }
      t += static_cast<double>(n) + 1.0;
    }
    for (const auto& b : blocks) {
      for (std::size_t i = 0; i < b.n; ++i) {
        if (claimed.retained(b.first + i)) {
          const double s = b.t + static_cast<double>(b.n - i);
          claimed.fill(b.first + i,
                       at(s, s + 1.0, SpanPhase::kSegmentDownload, b.parent));
        }
      }
    }
    EXPECT_EQ(claimed.recorded(), eager.recorded()) << capacity;
    EXPECT_EQ(claimed.dropped(), eager.dropped()) << capacity;
    EXPECT_EQ(claimed.to_jsonl(), eager.to_jsonl()) << capacity;
  }
}

TEST(SpanTracerTest, SpansOrderedByStartWithStableTies) {
  SpanTracer tracer(8);
  Span a = at(3.0, 4.0, SpanPhase::kTune);
  a.client = 1;
  Span b = at(3.0, 4.0, SpanPhase::kPlayback);
  b.client = 2;
  tracer.record(at(5.0, 6.0));
  tracer.record(a);
  tracer.record(b);
  tracer.record(at(1.0, 2.0));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_DOUBLE_EQ(spans[0].start_min, 1.0);
  EXPECT_EQ(spans[1].client, 1U);  // equal start: recording order preserved
  EXPECT_EQ(spans[2].client, 2U);
  EXPECT_DOUBLE_EQ(spans[3].start_min, 5.0);
}

TEST(SpanTracerTest, ClearResetsCountsAndIds) {
  SpanTracer tracer(2);
  tracer.record(at(0.0, 1.0));
  tracer.record(at(1.0, 2.0));
  tracer.record(at(2.0, 3.0));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0U);
  EXPECT_EQ(tracer.recorded(), 0U);
  EXPECT_EQ(tracer.dropped(), 0U);
  EXPECT_EQ(tracer.record(at(0.0, 1.0)), 1U);
}

TEST(SpanTracerTest, ClearResetsTheWrapCursor) {
  // Equal starts keep recording order, so the export shows which slot each
  // span landed in: a cursor left over from before clear() would overwrite
  // the wrong one.
  SpanTracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    tracer.record(at(static_cast<double>(i), 10.0));
  }
  tracer.clear();
  tracer.record(at(1.0, 2.0));
  EXPECT_EQ(tracer.reserve(2), 1U);
  tracer.fill(1, at(1.0, 2.0));
  tracer.fill(2, at(1.0, 2.0));
  EXPECT_EQ(tracer.record(at(1.0, 2.0)), 4U);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3U);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 2);
  }
}

TEST(SpanTracerTest, MergeRemapsIdsAndParentLinks) {
  SpanTracer src(8);
  const auto parent = src.record(at(0.0, 10.0));
  src.record(at(0.0, 1.0, SpanPhase::kTune, parent));
  SpanTracer dst(8);
  dst.record(at(5.0, 6.0));  // takes id 1 in the destination
  dst.merge_from(src);
  const auto spans = dst.spans();
  ASSERT_EQ(spans.size(), 3U);
  // Transferred spans get fresh ids; the child's parent follows the remap.
  EXPECT_EQ(spans[0].id, 2U);
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[1].id, 3U);
  EXPECT_EQ(spans[1].parent, 2U);
  EXPECT_EQ(spans[2].id, 1U);
}

TEST(SpanTracerTest, MergeTurnsLostParentsIntoRoots) {
  SpanTracer src(1);
  const auto parent = src.record(at(0.0, 10.0));
  src.record(at(0.0, 1.0, SpanPhase::kTune, parent));  // evicts the parent
  ASSERT_EQ(src.dropped(), 1U);
  SpanTracer dst(8);
  dst.merge_from(src);
  const auto spans = dst.spans();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].parent, 0U);
  EXPECT_EQ(spans[0].phase, SpanPhase::kTune);
}

TEST(SpanTracerTest, EveryPhaseHasAName) {
  for (const auto phase :
       {SpanPhase::kSession, SpanPhase::kQueueWait, SpanPhase::kTune,
        SpanPhase::kSegmentDownload, SpanPhase::kPlayback,
        SpanPhase::kRetransmit, SpanPhase::kDiskStall, SpanPhase::kEpoch,
        SpanPhase::kDrain, SpanPhase::kFaultEpisode, SpanPhase::kRepair,
        SpanPhase::kRegionSession, SpanPhase::kReroute}) {
    EXPECT_STRNE(to_string(phase), "unknown");
  }
}

TEST(SpanTracerTest, JsonlRoundTripsFields) {
  SpanTracer tracer(8);
  Span s = at(2.5, 4.5, SpanPhase::kTune, 0);
  s.channel = 3;
  s.video = 7;
  s.client = 11;
  s.value = 2.0;
  tracer.record(s);
  EXPECT_EQ(tracer.to_jsonl(),
            "{\"id\":1,\"parent\":0,\"phase\":\"tune\",\"start\":2.5,"
            "\"end\":4.5,\"channel\":3,\"video\":7,\"client\":11,"
            "\"value\":2}\n");
}

TEST(SpanTracerTest, JsonlEmitsLabelOnlyWhenPresent) {
  SpanTracer tracer(8);
  Span s = at(0.0, 1.0);
  s.label = "epoch #3";
  tracer.record(s);
  tracer.record(at(1.0, 2.0));
  const std::string jsonl = tracer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"label\":\"epoch #3\""), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.find("\"label\""), std::string::npos);
}

// Hostile display names — quotes, backslashes, control characters, raw
// non-ASCII bytes — must come out of the chrome export as valid JSON that
// parses back to the original strings.
TEST(SpanTracerTest, ChromeTraceEscapesHostileLabels) {
  const std::vector<std::string> hostile = {
      "qu\"ote\"s",
      "back\\slash\\path",
      "tab\there\nnewline",
      "na\xc3\xafve r\xc3\xa9sum\xc3\xa9",  // UTF-8 passes through
  };
  SpanTracer tracer(8);
  for (const auto& label : hostile) {
    Span s = at(0.0, 1.0);
    s.label = label;
    tracer.record(s);
  }
  const std::string json = tracer.to_chrome_trace();
  util::json::Value doc;
  ASSERT_NO_THROW(doc = util::json::parse(json)) << json;
  std::vector<std::string> names;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    if (event.string_or("cat", "") == "vodbcast.span") {
      names.push_back(event.at("name").as_string());
    }
  }
  ASSERT_EQ(names.size(), hostile.size());
  for (const auto& label : hostile) {
    EXPECT_NE(std::find(names.begin(), names.end(), label), names.end())
        << "label lost in translation: " << label;
  }
}

TEST(SpanTracerTest, ChromeTraceDrawsFlowArrowsOnlyAcrossChannels) {
  SpanTracer tracer(8);
  Span session = at(0.0, 10.0);
  session.channel = 0;
  const auto sid = tracer.record(session);
  Span tune = at(0.0, 1.0, SpanPhase::kTune, sid);
  tune.channel = 0;  // same track: no arrow
  tracer.record(tune);
  Span download = at(0.5, 4.5, SpanPhase::kSegmentDownload, sid);
  download.channel = 3;  // cross-track: one s/f arrow pair
  const auto did = tracer.record(download);
  const std::string json = tracer.to_chrome_trace();
  const auto doc = util::json::parse(json);
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    if (event.string_or("cat", "") != "vodbcast.flow") {
      continue;
    }
    EXPECT_DOUBLE_EQ(event.at("id").as_number(), static_cast<double>(did));
    if (event.at("ph").as_string() == "s") {
      ++starts;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), 0.0);
    } else if (event.at("ph").as_string() == "f") {
      ++finishes;
      EXPECT_DOUBLE_EQ(event.at("tid").as_number(), 3.0);
    }
  }
  EXPECT_EQ(starts, 1U);
  EXPECT_EQ(finishes, 1U);
}

TEST(SpanTracerTest, FoldedStacksCarrySelfTimeInMicros) {
  SpanTracer tracer(8);
  const auto sid = tracer.record(at(0.0, 10.0));
  tracer.record(at(0.0, 1.0, SpanPhase::kTune, sid));
  tracer.record(at(1.0, 10.0, SpanPhase::kPlayback, sid));
  // Download overlaps playback entirely; the union cover leaves the session
  // no self-time and the download its full interval on its own stack line.
  tracer.record(at(1.0, 5.0, SpanPhase::kSegmentDownload, sid));
  const std::string folded = tracer.to_folded();
  EXPECT_NE(folded.find("session;tune 1000000\n"), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("session;playback 9000000\n"), std::string::npos);
  EXPECT_NE(folded.find("session;segment_download 4000000\n"),
            std::string::npos);
  // Fully covered by children: no self-time line for the session itself.
  EXPECT_EQ(folded.find("session "), std::string::npos);
}

TEST(SpanDropAccountingTest, PublishDropMetricsExposesSpanLoss) {
  Sink sink(16, 2);
  for (int i = 0; i < 5; ++i) {
    sink.spans.record(at(static_cast<double>(i), static_cast<double>(i) + 1));
  }
  publish_drop_metrics(sink);
  EXPECT_EQ(sink.metrics.counter("obs.spans.dropped").value(), 3U);
  // Idempotent: a second export must not double-count.
  publish_drop_metrics(sink);
  EXPECT_EQ(sink.metrics.counter("obs.spans.dropped").value(), 3U);
}

// End-to-end: a simulated SB run must produce a coherent span tree — one
// session per served client, tune children whose duration equals the
// session's reported wait, playback and downloads nested inside the session
// interval.
TEST(SpanTracerTest, SimulationEmitsCoherentSpanTree) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      core::MbitPerSec{300.0}, 10,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}};
  Sink sink(65536, 65536);
  sim::SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.arrivals_per_minute = 2.0;
  config.plan_clients = true;
  config.sink = &sink;
  const auto report = sim::simulate(sb, input, config);
  ASSERT_GT(report.clients_served, 0U);
  ASSERT_EQ(sink.spans.dropped(), 0U);

  const auto spans = sink.spans.spans();
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& s : spans) {
    by_id.emplace(s.id, &s);
  }
  std::size_t sessions = 0;
  std::size_t tunes = 0;
  std::size_t playbacks = 0;
  std::size_t downloads = 0;
  for (const auto& s : spans) {
    EXPECT_GE(s.end_min, s.start_min);
    switch (s.phase) {
      case SpanPhase::kSession:
        ++sessions;
        EXPECT_EQ(s.parent, 0U);
        EXPECT_GE(s.value, 0.0);
        break;
      case SpanPhase::kTune: {
        ++tunes;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_EQ(session->phase, SpanPhase::kSession);
        EXPECT_EQ(session->client, s.client);
        // The tune span *is* the reported wait.
        EXPECT_NEAR(s.end_min - s.start_min, session->value, 1e-12);
        EXPECT_DOUBLE_EQ(s.start_min, session->start_min);
        break;
      }
      case SpanPhase::kPlayback: {
        ++playbacks;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_NEAR(s.end_min, session->end_min, 1e-9);
        break;
      }
      case SpanPhase::kSegmentDownload: {
        ++downloads;
        ASSERT_NE(s.parent, 0U);
        const auto* session = by_id.at(s.parent);
        EXPECT_GE(s.start_min, session->start_min - 1e-9);
        EXPECT_GT(s.value, 0.0);  // segment length, minutes
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(sessions, report.clients_served);
  EXPECT_EQ(tunes, report.clients_served);
  EXPECT_EQ(playbacks, report.clients_served);
  EXPECT_GT(downloads, 0U);
}

}  // namespace
}  // namespace vodbcast::obs
