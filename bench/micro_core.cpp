// google-benchmark microbenchmarks for the library's hot paths: series
// generation, reception planning, the exhaustive phase sweep, fault
// assessment and the end-to-end simulator inner loop.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "client/client_session.hpp"
#include "client/plan_cache.hpp"
#include "client/reception_plan.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "schemes/registry.hpp"
#include "schemes/skyscraper.hpp"
#include "series/broadcast_series.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_sweep.hpp"
#include "sim/simulator.hpp"

#include "harness/gbench_bridge.hpp"

namespace {

using namespace vodbcast;

const core::VideoParams kVideo{core::Minutes{120.0}, core::MbitPerSec{1.5}};

void BM_SkyscraperSeriesPrefix(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const series::SkyscraperSeries law;  // fresh memo each iteration
    benchmark::DoNotOptimize(law.prefix_sum(k, 52));
  }
}
BENCHMARK(BM_SkyscraperSeriesPrefix)->Arg(10)->Arg(40)->Arg(80);

void BM_PlanReception(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, static_cast<int>(state.range(0)), 52, kVideo);
  std::uint64_t t0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::plan_reception(layout, t0++ % 64));
  }
}
BENCHMARK(BM_PlanReception)->Arg(10)->Arg(20)->Arg(40);

void BM_WorstCaseSweep(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(law, 10, 12, kVideo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::worst_case_over_phases(layout, 256));
  }
}
BENCHMARK(BM_WorstCaseSweep);

void BM_ClientSessionSlotSim(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, static_cast<int>(state.range(0)), 12, kVideo);
  std::uint64_t t0 = 0;
  for (auto _ : state) {
    client::ClientSession session(layout, t0++ % 24);
    benchmark::DoNotOptimize(session.run());
  }
}
BENCHMARK(BM_ClientSessionSlotSim)->Arg(8)->Arg(12);

// Event-churn microbenchmarks for the discrete-event engine: schedule a
// batch of small-capture events and drain it. The queue outlives the
// iteration so the slab and heap vectors stay warm — steady state is
// allocation-free.
void BM_EventQueueChurn(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::EventQueue q;
  std::uint64_t acc = 0;
  double t = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      q.schedule(t + 0.25 * static_cast<double>(i),
                 [&acc, i] { acc += static_cast<std::uint64_t>(i); });
    }
    while (q.step()) {
    }
    t = q.now() + 1.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

// Same churn with captures past the inline threshold: every event pays the
// heap box, isolating the cost the SBO avoids.
void BM_EventQueueChurnSpill(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::EventQueue q;
  std::uint64_t acc = 0;
  double t = 0.0;
  std::array<std::uint64_t, 8> payload{};  // 64 bytes: always boxed
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      payload[0] = static_cast<std::uint64_t>(i);
      q.schedule(t + 0.25 * static_cast<double>(i),
                 [&acc, payload] { acc += payload[0]; });
    }
    while (q.step()) {
    }
    t = q.now() + 1.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EventQueueChurnSpill)->Arg(64);

// Self-scheduling cascade: each callback arms the next, the schedule-from-
// inside-a-callback pattern of the batching server's channel-free events.
void BM_EventQueueCascade(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    struct Chain {
      sim::EventQueue* q;
      std::uint64_t* fired;
      int left;
      void operator()() const {
        ++*fired;
        if (left > 0) {
          q->schedule(q->now() + 0.5, Chain{q, fired, left - 1});
        }
      }
    };
    q.schedule(q.now() + 0.5, Chain{&q, &fired, 511});
    while (q.step()) {
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueCascade);

void BM_SchemeEvaluation(benchmark::State& state) {
  const auto set = schemes::paper_figure_set();
  const schemes::DesignInput input{core::MbitPerSec{400.0}, 10, kVideo};
  for (auto _ : state) {
    for (const auto& scheme : set) {
      benchmark::DoNotOptimize(scheme->evaluate(input));
    }
  }
}
BENCHMARK(BM_SchemeEvaluation);

void BM_EndToEndSimulation(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
}
BENCHMARK(BM_EndToEndSimulation);

// A/B partner of BM_EndToEndSimulation: identical run with a live obs::Sink
// attached — which now wires the labeled families too (per-title wait
// sketches, per-channel utilization gauges). The no-sink variant must stay
// within noise of its pre-obs baseline (the null-sink path is one pointer
// test); the delta between the two *is* the cost of full metrics + tracing
// + label families, and the ≤2% overhead bar covers it.
void BM_EndToEndSimulationWithSink(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  obs::Sink sink;
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    config.sink = &sink;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
}
BENCHMARK(BM_EndToEndSimulationWithSink);

// Third leg of the A/B: the sink again, plus per-client reception planning
// (plan_clients) so the full span taxonomy fires — a session/tune/playback
// tree per client and a segment_download span per planned download into the
// bounded SpanTracer ring. The delta over BM_EndToEndSimulationWithSink is
// the causal-span capture cost; the no-sink variant stays the ≤2% bar.
void BM_EndToEndSimulationWithSpans(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  obs::Sink sink;
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    config.plan_clients = true;
    config.sink = &sink;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
  benchmark::DoNotOptimize(sink.spans.recorded());
}
BENCHMARK(BM_EndToEndSimulationWithSpans);

// Fault assessment of one SB client, A/B: every download judged in turn
// against judging only the downloads sim::FaultSweep names. The head end
// is the metro benchmark's: SB:W=52 at 2.4 Gb/s over 20 titles (80
// downloads per client) under an outages=2,bursts=1,stalls=1,restart=1
// plan on a 600-minute horizon; clients start at 4096 slots spread over
// the horizon, served as PlanCache views. Both report the damaged share of
// the downloads of the clients they visited.
class FaultAssessFixture {
 public:
  FaultAssessFixture()
      : input_{core::MbitPerSec{2400.0}, 20, kVideo},
        layout_(sb_.layout(input_, *sb_.design(input_))),
        injector_(fault::Plan::generate(
            fault::PlanSpec{.horizon_min = 600.0,
                            .channels = layout_.segment_count(),
                            .outages = 2,
                            .bursts = 1,
                            .disk_stalls = 1,
                            .server_restart = true},
            1 ^ 0x9E3779B97F4A7C15ULL)),
        cache_(layout_) {
    const double slots = 600.0 / layout_.unit_duration().v;
    for (std::uint64_t i = 0; i < kClients; ++i) {
      views_.push_back(cache_.at(static_cast<std::uint64_t>(
          slots * static_cast<double>(i) / static_cast<double>(kClients))));
    }
  }

  [[nodiscard]] const series::SegmentLayout& layout() const {
    return layout_;
  }
  [[nodiscard]] const fault::Injector& injector() const { return injector_; }
  [[nodiscard]] const client::PlanView& view(std::uint64_t client) const {
    return views_[client % kClients];
  }
  /// Assesses download `i` of `client`'s plan as sim::simulate does.
  [[nodiscard]] bool damaged(std::uint64_t client, std::size_t i) const {
    const double d1 = layout_.unit_duration().v;
    const auto d = view(client).download(i);
    return fault::assess_download(
               &injector_, static_cast<double>(d.start) * d1,
               static_cast<double>(d.end()) * d1, d.segment,
               static_cast<double>(d.length) * d1,
               client * 4096 + static_cast<std::uint64_t>(d.segment))
        .damaged;
  }

 private:
  static constexpr std::uint64_t kClients = 4096;
  const schemes::SkyscraperScheme sb_{52};
  schemes::DesignInput input_;
  series::SegmentLayout layout_;
  fault::Injector injector_;
  client::PlanCache cache_;
  std::vector<client::PlanView> views_;
};

void BM_FaultAssessPerDownload(benchmark::State& state) {
  const FaultAssessFixture fixture;
  std::uint64_t client = 0;
  std::uint64_t downloads = 0;
  std::uint64_t damaged = 0;
  for (auto _ : state) {
    const auto& view = fixture.view(++client);
    for (std::size_t i = 0; i < view.download_count(); ++i) {
      damaged += fixture.damaged(client, i) ? 1 : 0;
    }
    downloads += view.download_count();
  }
  state.counters["damaged_share"] =
      static_cast<double>(damaged) / static_cast<double>(downloads);
}
BENCHMARK(BM_FaultAssessPerDownload);

void BM_FaultAssessPerClient(benchmark::State& state) {
  const FaultAssessFixture fixture;
  sim::FaultSweep sweep(fixture.layout(), fixture.injector().plan());
  std::uint64_t client = 0;
  std::uint64_t downloads = 0;
  std::uint64_t damaged = 0;
  for (auto _ : state) {
    const auto& view = fixture.view(++client);
    for (const std::size_t i : sweep.touched(view)) {
      damaged += fixture.damaged(client, i) ? 1 : 0;
    }
    downloads += view.download_count();
  }
  state.counters["damaged_share"] =
      static_cast<double>(damaged) / static_cast<double>(downloads);
}
BENCHMARK(BM_FaultAssessPerClient);

// One record into a full 64k ring: the ring is overfilled 10x before the
// clock starts, so every timed record overwrites the oldest slot, as a
// long traced run does.
constexpr std::size_t kRingCapacity = 65536;
constexpr std::size_t kRingOverfill = 10 * kRingCapacity;

void BM_TracerRecord(benchmark::State& state) {
  obs::Tracer tracer(kRingCapacity);
  obs::TraceEvent event;
  event.kind = obs::EventKind::kSegmentDownloadStart;
  for (std::size_t i = 0; i < kRingOverfill; ++i) {
    tracer.record(event);
  }
  for (auto _ : state) {
    event.sim_time_min += 0.5;
    tracer.record(event);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_TracerRecord);

void BM_SpanTracerRecord(benchmark::State& state) {
  obs::SpanTracer spans(kRingCapacity);
  obs::Span span;
  span.phase = obs::SpanPhase::kSegmentDownload;
  for (std::size_t i = 0; i < kRingOverfill; ++i) {
    spans.record(span);
  }
  for (auto _ : state) {
    span.start_min += 0.5;
    span.end_min = span.start_min + 1.0;
    benchmark::DoNotOptimize(spans.record(span));
  }
}
BENCHMARK(BM_SpanTracerRecord);

// The family hot path in isolation. Per request, sim::simulate's labeled
// wiring adds one cached-pointer indirection plus one sketch observe on top
// of the unlabeled sketch it already fed; family resolution itself happened
// once, cold, at setup. A/B of these two pins that the label *dimension*
// costs nothing measurable per observation — only the resolve is dear.
void BM_SketchObserveUnlabeled(benchmark::State& state) {
  obs::Registry registry;
  auto& sketch = registry.sketch("bench.wait");
  double v = 0.01;
  for (auto _ : state) {
    sketch.observe(v);
    v = v < 30.0 ? v * 1.01 : 0.01;
  }
}
BENCHMARK(BM_SketchObserveUnlabeled);

void BM_SketchObserveLabeledHot(benchmark::State& state) {
  obs::Registry registry;
  auto& family = registry.sketch_family("bench.wait", {"title"}, {}, 16);
  std::vector<obs::QuantileSketch*> hot;
  for (std::uint64_t title = 0; title < 8; ++title) {
    hot.push_back(&family.with_ids({title}));
  }
  double v = 0.01;
  std::size_t i = 0;
  for (auto _ : state) {
    hot[i++ & 7]->observe(v);
    v = v < 30.0 ? v * 1.01 : 0.01;
  }
}
BENCHMARK(BM_SketchObserveLabeledHot);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  vodbcast::bench::Session session("micro_core", argc, argv);
  return vodbcast::bench::run_gbench(session);
}
