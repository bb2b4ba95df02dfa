// Golden digests of every campaign engine's observable output.
//
// Each case runs one engine on a small seeded configuration and folds its
// report fields, metrics registry, trace ring and span ring into a
// canonical text, hashed with FNV-1a. Doubles enter as hex floats, so a
// digest matches only when every bit matches. Excluded, because they are
// not functions of the seed: wall-clock timings (every `*_ns` sketch)
// and the event-queue occupancy gauges `sim.event_queue.pending_peak` and
// `sim.event_queue.slab_slots`, which describe how the engine stores its
// pending work rather than what it computes.
//
// The expected digests were recorded from the engines as they stood before
// arrivals were streamed through EventQueue's arrival merge; they pin that
// the streaming engines reproduce the pre-scheduled ones exactly. The
// ring-pressure digests were recorded while sim::simulate still wrote every
// reception record as it planned the client; they pin that claiming ring
// positions and filling only the retained ones reproduces the same rings.
// The adaptive_replicated and sim_replicated_report digests were recorded
// while each replicated runner still carried its own seed, slot and merge
// code; they pin that the shared runner reproduces every one of them.
// Every simulate, ring and dense digest was recorded while sim::simulate
// still assessed every download of every client against the fault plan;
// they pin that the per-client fault sweep reproduces them. The simulate,
// dense, sim_replicated_report and federation_replicated digests moved once
// on purpose, when sketch quantiles were clamped to the exact sample range:
// only folded p95/p99 fields that sat above their sample maximum changed
// (largest: the federation wait p95/p99, 30.267 -> 30.0 min). The sink
// cases of simulate, dense, sim_replicated_report, hybrid and multicast
// moved once more when the fixed-bin histograms went: the duplicate
// sim.tune_wait_min lines are gone and batching.batch_size is a sketch
// with the same count and sum; no report field and no other line changed.
// On a mismatch the failure message prints the new table entry.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batching/hybrid.hpp"
#include "batching/queue_policies.hpp"
#include "batching/scheduled_multicast.hpp"
#include "ctrl/adaptive.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metro/federation.hpp"
#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 17, 101};

/// Canonical text builder: one `key=value` line per field.
class Canon {
 public:
  void field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    line(key, buf);
  }
  void field(const std::string& key, std::uint64_t value) {
    line(key, std::to_string(value));
  }
  void field(const std::string& key, std::int64_t value) {
    line(key, std::to_string(value));
  }
  void field(const std::string& key, int value) {
    line(key, std::to_string(value));
  }
  void field(const std::string& key, const std::string& value) {
    line(key, value);
  }

  void distribution(const std::string& key, const sim::Distribution& d) {
    field(key + ".count", static_cast<std::uint64_t>(d.count()));
    if (d.empty()) {
      return;
    }
    field(key + ".mean", d.mean());
    field(key + ".min", d.min());
    field(key + ".max", d.max());
    field(key + ".stddev", d.stddev());
    field(key + ".p50", d.quantile(0.5));
    field(key + ".p95", d.quantile(0.95));
    field(key + ".p99", d.quantile(0.99));
    field(key + ".folded", d.samples_folded());
  }

  void sink(const obs::Sink& sink) {
    metrics(sink.metrics);
    line("trace", sink.trace.to_jsonl());
    line("spans", sink.spans.to_jsonl());
  }

  /// Every metric but the excluded ones and those named `skip_prefix`*,
  /// in snapshot order.
  void metrics(const obs::Registry& registry,
               const std::string& skip_prefix = {}) {
    const auto excluded = [&skip_prefix](const std::string& name) {
      return Canon::excluded(name) ||
             (!skip_prefix.empty() && name.starts_with(skip_prefix));
    };
    const auto snap = registry.snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (!excluded(name)) {
        field("counter." + name, value);
      }
    }
    for (const auto& [name, value] : snap.gauges) {
      if (!excluded(name)) {
        field("gauge." + name, value);
      }
    }
    for (const auto& s : snap.sketches) {
      if (excluded(s.name)) {
        continue;
      }
      const auto key = "sketch." + s.name + labels(s.labels);
      field(key + ".count", s.count);
      field(key + ".zero", s.zero_count);
      field(key + ".sum", s.sum);
      field(key + ".min", s.min);
      field(key + ".max", s.max);
      field(key + ".collapsed", s.collapsed);
      for (const auto& [index, count] : s.sketch.buckets()) {
        field(key + ".b" + std::to_string(index), count);
      }
    }
    for (const auto& c : snap.family_counters) {
      if (!excluded(c.name)) {
        field("counter." + c.name + labels(c.labels), c.value);
      }
    }
    for (const auto& g : snap.family_gauges) {
      if (!excluded(g.name)) {
        field("gauge." + g.name + labels(g.labels), g.value);
      }
    }
  }

  [[nodiscard]] std::string digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text_) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
  }

 private:
  static bool excluded(const std::string& name) {
    const auto ends_with = [&name](const std::string& suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    return ends_with("_ns") || name == "sim.event_queue.pending_peak" ||
           name == "sim.event_queue.slab_slots";
  }

  static std::string labels(const obs::Snapshot::Labels& ls) {
    std::string out;
    for (const auto& [k, v] : ls) {
      out += "{" + k + "=" + v + "}";
    }
    return out;
  }

  void line(const std::string& key, const std::string& value) {
    text_ += key;
    text_ += '=';
    text_ += value;
    text_ += '\n';
  }

  std::string text_;
};

/// Compares `canon` against the recorded digest for `name`.
void expect_golden(const std::string& name, const Canon& canon) {
  static const std::map<std::string, std::string> kGolden = {
      {"adaptive/seed101/nosink/clean", "64df437efc6d163c"},
      {"adaptive/seed101/nosink/faults", "164683867950b040"},
      {"adaptive/seed101/sink/clean", "28ffdb5c86c41bee"},
      {"adaptive/seed101/sink/faults", "42b2f7b467e2324f"},
      {"adaptive/seed17/nosink/clean", "cec248bb6641c091"},
      {"adaptive/seed17/nosink/faults", "de6d28a94a0afcfe"},
      {"adaptive/seed17/sink/clean", "782d1338e7691489"},
      {"adaptive/seed17/sink/faults", "c28dbf4a0dd9a21d"},
      {"adaptive/seed3/nosink/clean", "2961cc5034187d04"},
      {"adaptive/seed3/nosink/faults", "a759008d99cd5908"},
      {"adaptive/seed3/sink/clean", "20c049e58b30852f"},
      {"adaptive/seed3/sink/faults", "6016d28311ceff2b"},
      {"adaptive_replicated/t4096s4096/seed101", "8819590a76076ed4"},
      {"adaptive_replicated/t4096s4096/seed17", "d4f66129d182cb46"},
      {"adaptive_replicated/t4096s4096/seed3", "7cee90280b7e4adb"},
      {"adaptive_replicated/t7s97/seed101", "3ff2854aac1edf9b"},
      {"adaptive_replicated/t7s97/seed17", "b26bcd361c33355e"},
      {"adaptive_replicated/t7s97/seed3", "220ddc6dafb36f50"},
      {"dense/t4096s4096/seed101", "9a187f9033cc3253"},
      {"dense/t4096s4096/seed17", "6381ddb5a7c00013"},
      {"dense/t4096s4096/seed3", "33edeca9d777e826"},
      {"dense/t7s97/seed101", "8b518e4736677c5d"},
      {"dense/t7s97/seed17", "e7111f7dc28d30de"},
      {"dense/t7s97/seed3", "c5d1afc7116a68fc"},
      {"federation/seed101/nosink/clean", "5a304e99ad00a36c"},
      {"federation/seed101/nosink/faults", "25269a35305c533c"},
      {"federation/seed101/sink/clean", "660a1b9074a6b12c"},
      {"federation/seed101/sink/faults", "d310d41b23743078"},
      {"federation/seed17/nosink/clean", "9afa8e85cb0282b6"},
      {"federation/seed17/nosink/faults", "b2291ea31924e50e"},
      {"federation/seed17/sink/clean", "7cbe49f85c6a4377"},
      {"federation/seed17/sink/faults", "bc9e5f70058f346b"},
      {"federation/seed3/nosink/clean", "6466ff44fac855d0"},
      {"federation/seed3/nosink/faults", "784226f50474f155"},
      {"federation/seed3/sink/clean", "35180346fde7e0a4"},
      {"federation/seed3/sink/faults", "ffb8b7853e94bff9"},
      {"federation_replicated/seed101/sink/faults", "6256a4fd93db556d"},
      {"federation_replicated/seed17/sink/faults", "c6d9c4938c2aa5b0"},
      {"federation_replicated/seed3/sink/faults", "66cef491ff5745c1"},
      {"hybrid/seed101/nosink/patient", "e0644ba4468eb555"},
      {"hybrid/seed101/nosink/reneging", "01755da7918ba0c5"},
      {"hybrid/seed101/sink/patient", "e76354a560555d3e"},
      {"hybrid/seed101/sink/reneging", "5a0e17b14cda23fd"},
      {"hybrid/seed17/nosink/patient", "1285974924f08c4b"},
      {"hybrid/seed17/nosink/reneging", "088567b3e1e1101a"},
      {"hybrid/seed17/sink/patient", "a1f45de49fdd9410"},
      {"hybrid/seed17/sink/reneging", "187fad26f43bbbce"},
      {"hybrid/seed3/nosink/patient", "7f3af79ced247778"},
      {"hybrid/seed3/nosink/reneging", "d098a5437c196a5d"},
      {"hybrid/seed3/sink/patient", "5443bdfc47a95194"},
      {"hybrid/seed3/sink/reneging", "db5dac4600d1c02c"},
      {"multicast/seed101/nosink/patient", "d1ffe0e56d6f9139"},
      {"multicast/seed101/nosink/reneging", "50e9588e1ba8fc98"},
      {"multicast/seed101/sink/patient", "54713dfde0aeae02"},
      {"multicast/seed101/sink/reneging", "19a91c390f84f03e"},
      {"multicast/seed17/nosink/patient", "8f40a2796360d37e"},
      {"multicast/seed17/nosink/reneging", "d829d1ed4cda180a"},
      {"multicast/seed17/sink/patient", "3f9a2d3cbed41e5c"},
      {"multicast/seed17/sink/reneging", "b8a4676d00f256bf"},
      {"multicast/seed3/nosink/patient", "b52ac36073cd6ecb"},
      {"multicast/seed3/nosink/reneging", "e92ff3d3d9b6cb1c"},
      {"multicast/seed3/sink/patient", "7357fa8026d744a9"},
      {"multicast/seed3/sink/reneging", "9aafa18ae3b9ae1d"},
      {"ring/t1s1/seed101", "80d255e51a471658"},
      {"ring/t1s1/seed17", "18ab4bc7a7225906"},
      {"ring/t1s1/seed3", "e3ad98977e638af7"},
      {"ring/t4096s4096/seed101", "aaae4eb05a103f59"},
      {"ring/t4096s4096/seed17", "7da98b65cbcc215a"},
      {"ring/t4096s4096/seed3", "3da39eea05815370"},
      {"ring/t7s97/seed101", "7acbae2807dda4a0"},
      {"ring/t7s97/seed17", "632fe2cce4d0fbab"},
      {"ring/t7s97/seed3", "436588b1401cc0b7"},
      {"ring/t97s7/seed101", "b92a922cafaf51dc"},
      {"ring/t97s7/seed17", "7e6ff12391334459"},
      {"ring/t97s7/seed3", "97fb45722bfb071a"},
      {"ring_replicated/t1s1/seed101", "1651737304f5e67b"},
      {"ring_replicated/t1s1/seed17", "be895795ab44f7cf"},
      {"ring_replicated/t1s1/seed3", "68c504f55bbf12a5"},
      {"ring_replicated/t4096s4096/seed101", "1f2aa3e5fbe38795"},
      {"ring_replicated/t4096s4096/seed17", "2bd046ba5470235f"},
      {"ring_replicated/t4096s4096/seed3", "494c025e58e96da4"},
      {"ring_replicated/t7s97/seed101", "14a34aff43df1bef"},
      {"ring_replicated/t7s97/seed17", "e379a51ffd35bb33"},
      {"ring_replicated/t7s97/seed3", "abff7859e04d51cd"},
      {"ring_replicated/t97s7/seed101", "59b993ea1ac74df2"},
      {"ring_replicated/t97s7/seed17", "f540ccf3cbcd1d1a"},
      {"ring_replicated/t97s7/seed3", "499aff2e4c5306a4"},
      {"ring_shared/t1s1/seed101", "3ed9a0ece9d78cb2"},
      {"ring_shared/t1s1/seed17", "c250fbcfd66bf12e"},
      {"ring_shared/t1s1/seed3", "b51d0697a7463da8"},
      {"ring_shared/t4096s4096/seed101", "ff1b9f0a9e1f4e33"},
      {"ring_shared/t4096s4096/seed17", "4b3b42b5fded8943"},
      {"ring_shared/t4096s4096/seed3", "f6d97f7559177db3"},
      {"ring_shared/t7s97/seed101", "23c86d95b0088194"},
      {"ring_shared/t7s97/seed17", "b0d41191d9ca2a54"},
      {"ring_shared/t7s97/seed3", "e2eced72f528d2df"},
      {"ring_shared/t97s7/seed101", "695d351df467265a"},
      {"ring_shared/t97s7/seed17", "c7c412413452d8fe"},
      {"ring_shared/t97s7/seed3", "6e7c19cd60272124"},
      {"sim_replicated_report/seed101", "0117100541bc7751"},
      {"sim_replicated_report/seed17", "2751ed9d9d078b82"},
      {"sim_replicated_report/seed3", "06badd5205cf5c88"},
      {"simulate/seed101/nosink/clean", "0071fd2098388ee5"},
      {"simulate/seed101/nosink/faults", "43c2116b1230c8ec"},
      {"simulate/seed101/sink/clean", "4102f48d71d3855a"},
      {"simulate/seed101/sink/faults", "facf829d17eb4877"},
      {"simulate/seed17/nosink/clean", "84369e49f325543e"},
      {"simulate/seed17/nosink/faults", "de489c6137a1ac80"},
      {"simulate/seed17/sink/clean", "7ac3876e67c23d2c"},
      {"simulate/seed17/sink/faults", "c9158b24bf7514e9"},
      {"simulate/seed3/nosink/clean", "a20760c2d44876ec"},
      {"simulate/seed3/nosink/faults", "c091e79e22ce2080"},
      {"simulate/seed3/sink/clean", "e8d8089db0084907"},
      {"simulate/seed3/sink/faults", "8c9cd0831e539cf6"},
  };
  const auto actual = canon.digest();
  const auto it = kGolden.find(name);
  if (it == kGolden.end() || it->second != actual) {
    ADD_FAILURE() << "golden mismatch, new entry: {\"" << name << "\", \""
                  << actual << "\"},";
  }
}

std::unique_ptr<obs::Sink> make_sink(bool with_sink) {
  return with_sink ? std::make_unique<obs::Sink>(4096, 4096) : nullptr;
}

/// Case name, e.g. "simulate/seed3/sink/faults". `axis` names the second
/// variant axis: a fault plan, or reneging for the engines without one.
std::string variant(const char* engine, std::uint64_t seed, bool with_sink,
                    const char* axis) {
  return std::string(engine) + "/seed" + std::to_string(seed) +
         (with_sink ? "/sink/" : "/nosink/") + axis;
}

void canon_simulation(Canon& canon, const sim::SimulationReport& report) {
  canon.field("scheme", report.scheme);
  canon.distribution("latency", report.latency_minutes);
  canon.distribution("buffer_peak", report.buffer_peak_mbits);
  canon.field("max_concurrent_downloads", report.max_concurrent_downloads);
  canon.field("clients_served", report.clients_served);
  canon.field("jitter_events", report.jitter_events);
  canon.field("peak_server_rate", report.peak_server_rate.v);
  canon.field("fault_hits", report.fault_hits);
  canon.field("fault_repairs", report.fault_repairs);
  canon.field("fault_degraded", report.fault_degraded);
  canon.distribution("fault_penalty", report.fault_penalty_minutes);
}

// sim::simulate — SB:W=52, every client planned, a streaming stats cap
// small enough to fold; faults are a generated outage/burst/stall/restart
// plan, assessed on the downloads the per-client fault sweep names.
TEST(EngineGoldenTest, Simulate) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
  for (const auto seed : kSeeds) {
    for (const bool with_sink : {false, true}) {
      for (const bool faults : {false, true}) {
        const auto sink = make_sink(with_sink);
        const fault::Injector injector(fault::Plan::generate(
            fault::PlanSpec{.horizon_min = 240.0,
                            .channels = 20,
                            .outages = 2,
                            .bursts = 1,
                            .disk_stalls = 1,
                            .server_restart = true},
            seed ^ 0x5bd1e995ULL));
        sim::SimulationConfig config;
        config.horizon = core::Minutes{240.0};
        config.arrivals_per_minute = 8.0;
        config.seed = seed;
        config.plan_clients = true;
        config.stats_sample_cap = 512;
        config.sink = sink.get();
        config.injector = faults ? &injector : nullptr;
        const auto report = sim::simulate(sb, input, config);

        Canon canon;
        canon_simulation(canon, report);
        if (sink != nullptr) {
          canon.sink(*sink);
        }
        expect_golden(
            variant("simulate", seed, with_sink, faults ? "faults" : "clean"),
            canon);
      }
    }
  }
}

// Ring pressure: sim::simulate with faults on and trace/span rings far
// smaller than what a run records, so both rings wrap many times. The
// capacities are not multiples of a client's 2K trace or K span reception
// records (K = downloads per client), so a client's records straddle the
// wrap point. Each case hashes both rings and their recorded / dropped
// counts; the report is pinned by the Simulate cases above.
constexpr std::pair<std::size_t, std::size_t> kRingCapacities[] = {
    {1, 1}, {7, 97}, {97, 7}, {4096, 4096}};

const schemes::SkyscraperScheme& ring_scheme() {
  static const schemes::SkyscraperScheme sb(52);
  return sb;
}

schemes::DesignInput ring_input() {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
}

fault::Injector ring_injector(std::uint64_t seed) {
  return fault::Injector(fault::Plan::generate(
      fault::PlanSpec{.horizon_min = 240.0,
                      .channels = 20,
                      .outages = 2,
                      .bursts = 1,
                      .disk_stalls = 1,
                      .server_restart = true},
      seed ^ 0x5bd1e995ULL));
}

sim::SimulationConfig ring_config(std::uint64_t seed, bool plan_cache,
                                  const fault::Injector& injector,
                                  obs::Sink& sink) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{240.0};
  config.arrivals_per_minute = 8.0;
  config.seed = seed;
  config.plan_clients = true;
  config.plan_cache = plan_cache;
  config.stats_sample_cap = 512;
  config.injector = &injector;
  config.sink = &sink;
  return config;
}

void canon_rings(Canon& canon, const obs::Sink& sink) {
  canon.field("trace.recorded", sink.trace.recorded());
  canon.field("trace.dropped", sink.trace.dropped());
  canon.field("spans.recorded", sink.spans.recorded());
  canon.field("spans.dropped", sink.spans.dropped());
  canon.field("trace", sink.trace.to_jsonl());
  canon.field("spans", sink.spans.to_jsonl());
}

std::string ring_variant(const char* kind, std::size_t trace_capacity,
                         std::size_t span_capacity, std::uint64_t seed) {
  return std::string(kind) + "/t" + std::to_string(trace_capacity) + "s" +
         std::to_string(span_capacity) + "/seed" + std::to_string(seed);
}

// One run per capacity pair, with the plan cache on (views outlive the
// arrival) and off (a fresh plan per arrival); both share one digest.
TEST(EngineGoldenTest, SimulateRingPressure) {
  for (const auto seed : kSeeds) {
    const auto injector = ring_injector(seed);
    for (const auto& [trace_cap, span_cap] : kRingCapacities) {
      for (const bool plan_cache : {true, false}) {
        obs::Sink sink(trace_cap, span_cap);
        (void)sim::simulate(ring_scheme(), ring_input(),
                            ring_config(seed, plan_cache, injector, sink));
        Canon canon;
        canon_rings(canon, sink);
        expect_golden(ring_variant("ring", trace_cap, span_cap, seed), canon);
      }
    }
  }
}

// Consecutive runs on one sink, as a bench sweep does: each run records
// after the previous one has returned, onto its rings. The later runs are
// short, so the rings still hold the tail of the first (plan cache on)
// and all of the last (plan cache on); the middle run has the cache off.
TEST(EngineGoldenTest, SimulateRingPressureSharedSink) {
  for (const auto seed : kSeeds) {
    const auto injector = ring_injector(seed);
    for (const auto& [trace_cap, span_cap] : kRingCapacities) {
      obs::Sink sink(trace_cap, span_cap);
      (void)sim::simulate(ring_scheme(), ring_input(),
                          ring_config(seed, true, injector, sink));
      for (const bool plan_cache : {false, true}) {
        auto config = ring_config(seed + (plan_cache ? 2 : 1), plan_cache,
                                  injector, sink);
        config.horizon = core::Minutes{5.0};
        (void)sim::simulate(ring_scheme(), ring_input(), config);
      }
      Canon canon;
      canon_rings(canon, sink);
      expect_golden(ring_variant("ring_shared", trace_cap, span_cap, seed),
                    canon);
    }
  }
}

// simulate_replicated merges each replication's rings in replication order:
// serial and a 4-worker pool share one digest.
TEST(EngineGoldenTest, SimulateRingPressureReplicated) {
  util::TaskPool pool(4);
  for (const auto seed : kSeeds) {
    const auto injector = ring_injector(seed);
    for (const auto& [trace_cap, span_cap] : kRingCapacities) {
      for (util::TaskPool* p :
           {static_cast<util::TaskPool*>(nullptr), &pool}) {
        obs::Sink sink(trace_cap, span_cap);
        const auto replicated = sim::simulate_replicated(
            ring_scheme(), ring_input(),
            ring_config(seed, true, injector, sink), 3, p);
        Canon canon;
        canon.field("clients_served", replicated.merged.clients_served);
        canon_rings(canon, sink);
        expect_golden(
            ring_variant("ring_replicated", trace_cap, span_cap, seed),
            canon);
      }
    }
  }
}

// A dense fault plan: many episodes of every kind, spread over more
// channels than the layout's 20 segments, so some scoped episodes miss
// every download. Each case hashes the report, the metrics and both rings;
// the plan cache on and off share one digest.
TEST(EngineGoldenTest, SimulateDenseFaults) {
  constexpr std::pair<std::size_t, std::size_t> kCapacities[] = {
      {7, 97}, {4096, 4096}};
  for (const auto seed : kSeeds) {
    const fault::Injector injector(fault::Plan::generate(
        fault::PlanSpec{.horizon_min = 240.0,
                        .channels = 30,
                        .outages = 12,
                        .bursts = 6,
                        .disk_stalls = 4,
                        .server_restart = true},
        seed ^ 0x27d4eb2fULL));
    for (const auto& [trace_cap, span_cap] : kCapacities) {
      for (const bool plan_cache : {true, false}) {
        obs::Sink sink(trace_cap, span_cap);
        const auto report =
            sim::simulate(ring_scheme(), ring_input(),
                          ring_config(seed, plan_cache, injector, sink));
        // Dense enough that both recovery outcomes occur.
        EXPECT_GT(report.fault_repairs, 0U);
        EXPECT_GT(report.fault_degraded, 0U);
        Canon canon;
        canon_simulation(canon, report);
        // The cache's own counters are the one output that differs.
        canon.metrics(sink.metrics, "sim.plan_cache.");
        canon_rings(canon, sink);
        expect_golden(ring_variant("dense", trace_cap, span_cap, seed),
                      canon);
      }
    }
  }
}

fault::Injector adaptive_injector(std::uint64_t seed) {
  return fault::Injector(fault::Plan::generate(
      fault::PlanSpec{.horizon_min = 600.0,
                      .channels = 48,
                      .outages = 3,
                      .bursts = 1,
                      .disk_stalls = 1,
                      .server_restart = true},
      seed + 1000));
}

ctrl::AdaptiveConfig adaptive_config(std::uint64_t seed,
                                     const fault::Injector* injector,
                                     obs::Sink* sink) {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{72.0};
  config.catalog_size = 40;
  config.hot_titles = 8;
  config.broadcast_channels_per_video = 4;
  config.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 6.0;
  config.horizon = core::Minutes{600.0};
  config.epoch = core::Minutes{30.0};
  config.half_life = core::Minutes{30.0};
  config.min_tail_channels = 4;
  config.flip_at = core::Minutes{300.0};
  config.seed = seed;
  config.sink = sink;
  config.injector = injector;
  return config;
}

void canon_adaptive(Canon& canon, const ctrl::AdaptiveReport& report) {
  canon.distribution("wait", report.wait_minutes);
  canon.distribution("hot_wait", report.hot_wait_minutes);
  canon.distribution("tail_wait", report.tail_wait_minutes);
  canon.field("served_hot", report.served_hot);
  canon.field("served_tail", report.served_tail);
  canon.field("unserved", report.unserved);
  canon.field("epochs", report.epochs);
  canon.field("reallocs", report.reallocs);
  canon.field("promotions", report.promotions);
  canon.field("demotions", report.demotions);
  canon.field("drains_completed", report.drains_completed);
  canon.field("deferred_promotions", report.deferred_promotions);
  canon.field("degraded_epochs", report.degraded_epochs);
  canon.field("fault_forced_demotions", report.fault_forced_demotions);
  canon.field("fault_restarts", report.fault_restarts);
  canon.field("channels_per_video", report.channels_per_video);
  canon.field("broadcast_worst_latency", report.broadcast_worst_latency.v);
  canon.field("degraded", report.degraded ? 1 : 0);
  std::string hot;
  for (const auto v : report.final_hot) {
    hot += std::to_string(v) + ",";
  }
  canon.field("final_hot", hot);
  canon.field("converged_epochs_after_flip",
              report.converged_epochs_after_flip);
}

// simulate_replicated's merged report, its per-replication means and CI,
// and the merged metrics (the rings are pinned by ring_replicated): serial
// and a 4-worker pool share one digest.
TEST(EngineGoldenTest, SimulateReplicatedReport) {
  util::TaskPool pool(4);
  for (const auto seed : kSeeds) {
    const auto injector = ring_injector(seed);
    for (util::TaskPool* p : {static_cast<util::TaskPool*>(nullptr), &pool}) {
      obs::Sink sink(4096, 4096);
      const auto replicated = sim::simulate_replicated(
          ring_scheme(), ring_input(), ring_config(seed, true, injector, sink),
          3, p);
      Canon canon;
      canon_simulation(canon, replicated.merged);
      canon.field("replications",
                  static_cast<std::uint64_t>(replicated.replications));
      canon.distribution("replication_mean_latency",
                         replicated.replication_mean_latency);
      canon.field("latency_mean_ci95", replicated.latency_mean_ci95);
      canon.metrics(sink.metrics);
      expect_golden("sim_replicated_report/seed" + std::to_string(seed),
                    canon);
    }
  }
}

// ctrl::simulate_adaptive — epochs on, popularity flip mid-horizon; faults
// add an outage-forced demotion and a server restart.
TEST(EngineGoldenTest, SimulateAdaptive) {
  for (const auto seed : kSeeds) {
    const auto injector = adaptive_injector(seed);
    for (const bool with_sink : {false, true}) {
      for (const bool faults : {false, true}) {
        const auto sink = make_sink(with_sink);
        const auto report = ctrl::simulate_adaptive(
            batching::MqlPolicy(),
            adaptive_config(seed, faults ? &injector : nullptr, sink.get()));
        Canon canon;
        canon_adaptive(canon, report);
        if (sink != nullptr) {
          canon.sink(*sink);
        }
        expect_golden(
            variant("adaptive", seed, with_sink, faults ? "faults" : "clean"),
            canon);
      }
    }
  }
}

// simulate_adaptive_replicated with faults on and rings under pressure:
// the merged report, the per-replication means and CI, both rings and the
// merged metrics. Serial and a 4-worker pool share one digest.
TEST(EngineGoldenTest, SimulateAdaptiveReplicated) {
  constexpr std::pair<std::size_t, std::size_t> kCapacities[] = {
      {7, 97}, {4096, 4096}};
  util::TaskPool pool(4);
  for (const auto seed : kSeeds) {
    const auto injector = adaptive_injector(seed);
    for (const auto& [trace_cap, span_cap] : kCapacities) {
      for (util::TaskPool* p :
           {static_cast<util::TaskPool*>(nullptr), &pool}) {
        obs::Sink sink(trace_cap, span_cap);
        const auto replicated = ctrl::simulate_adaptive_replicated(
            batching::MqlPolicy(), adaptive_config(seed, &injector, &sink), 3,
            p);
        Canon canon;
        canon_adaptive(canon, replicated.merged);
        canon.field("replications",
                    static_cast<std::uint64_t>(replicated.replications));
        canon.distribution("replication_mean_wait",
                           replicated.replication_mean_wait);
        canon.field("wait_mean_ci95", replicated.wait_mean_ci95);
        canon_rings(canon, sink);
        canon.metrics(sink.metrics);
        expect_golden(ring_variant("adaptive_replicated", trace_cap, span_cap,
                                   seed),
                      canon);
      }
    }
  }
}

void canon_multicast(Canon& canon, const batching::MulticastReport& report) {
  canon.field("policy", report.policy);
  canon.distribution("wait", report.wait_minutes);
  canon.distribution("batch_size", report.batch_size);
  canon.field("served", report.served);
  canon.field("reneged", report.reneged);
  canon.field("streams_started", report.streams_started);
  canon.field("channel_utilization", report.channel_utilization);
}

// batching::evaluate_hybrid — the hybrid takes no fault plan, so the second
// axis is reneging (patience) on or off.
TEST(EngineGoldenTest, EvaluateHybrid) {
  for (const auto seed : kSeeds) {
    for (const bool with_sink : {false, true}) {
      for (const bool reneging : {false, true}) {
        const auto sink = make_sink(with_sink);
        batching::HybridConfig config;
        config.total_bandwidth = core::MbitPerSec{120.0};
        config.catalog_size = 50;
        config.hot_titles = 10;
        config.broadcast_channels_per_video = 6;
        config.arrivals_per_minute = 6.0;
        config.horizon = core::Minutes{900.0};
        config.mean_patience = core::Minutes{reneging ? 20.0 : -1.0};
        config.stats_sample_cap = 256;
        config.seed = seed;
        config.sink = sink.get();
        const auto report = batching::evaluate_hybrid(batching::MqlPolicy(),
                                                      config);

        Canon canon;
        canon.field("hot_titles",
                    static_cast<std::uint64_t>(report.hot_titles));
        canon.field("hot_demand_fraction", report.hot_demand_fraction);
        canon.field("broadcast_worst_latency",
                    report.broadcast_worst_latency.v);
        canon.field("broadcast_bandwidth", report.broadcast_bandwidth.v);
        canon.field("multicast_channels", report.multicast_channels);
        canon_multicast(canon, report.multicast);
        canon.field("combined_mean_wait", report.combined_mean_wait_minutes);
        if (sink != nullptr) {
          canon.sink(*sink);
        }
        expect_golden(variant("hybrid", seed, with_sink,
                              reneging ? "reneging" : "patient"),
                      canon);
      }
    }
  }
}

// batching::simulate_scheduled_multicast on a pre-generated Zipf stream;
// the second axis is reneging, as for the hybrid.
TEST(EngineGoldenTest, ScheduledMulticast) {
  for (const auto seed : kSeeds) {
    workload::RequestGenerator generator(workload::zipf_probabilities(30),
                                         4.0, util::Rng(seed));
    const auto requests = generator.generate_until(core::Minutes{800.0});
    for (const bool with_sink : {false, true}) {
      for (const bool reneging : {false, true}) {
        const auto sink = make_sink(with_sink);
        batching::MulticastConfig config;
        config.channels = 12;
        config.video_length = core::Minutes{90.0};
        config.horizon = core::Minutes{800.0};
        config.mean_patience = core::Minutes{reneging ? 15.0 : -1.0};
        config.seed = seed + 7;
        config.stats_sample_cap = 256;
        config.sink = sink.get();
        const auto report = batching::simulate_scheduled_multicast(
            batching::FcfsPolicy(), requests, 30, config);

        Canon canon;
        canon_multicast(canon, report);
        if (sink != nullptr) {
          canon.sink(*sink);
        }
        expect_golden(variant("multicast", seed, with_sink,
                              reneging ? "reneging" : "patient"),
                      canon);
      }
    }
  }
}

metro::FederationConfig federation_config(std::uint64_t seed, bool faults,
                                          obs::Sink* sink) {
  metro::FederationConfig config;
  config.catalog_size = 48;
  config.replicate_top = 6;
  config.horizon = core::Minutes{150.0};
  config.stats_sample_cap = 2048;
  config.seed = seed;
  config.sink = sink;
  if (faults) {
    for (std::size_t r = 0; r < 4; ++r) {
      std::vector<fault::Episode> episodes;
      if (r == (seed % 4)) {
        episodes.push_back(fault::Episode{fault::EpisodeKind::kChannelOutage,
                                          30.0, 100.0, -1, {}});
      }
      config.fault_plans.push_back(fault::Plan(std::move(episodes), 100 + r));
    }
  }
  return config;
}

void canon_federation(Canon& canon, const metro::FederationReport& report) {
  for (std::size_t g = 0; g < report.regions.size(); ++g) {
    const auto& r = report.regions[g];
    const auto key = "region" + std::to_string(g);
    canon.field(key + ".arrivals", r.arrivals);
    canon.field(key + ".served_local", r.served_local);
    canon.field(key + ".rerouted_out", r.rerouted_out);
    canon.field(key + ".rerouted_in", r.rerouted_in);
    canon.field(key + ".rejected", r.rejected);
    canon.field(key + ".link_mbits", r.link_mbits);
    canon.distribution(key + ".wait", r.wait_minutes);
  }
  canon.field("arrivals", report.arrivals);
  canon.field("served_local", report.served_local);
  canon.field("rerouted", report.rerouted);
  canon.field("rejected", report.rejected);
  canon.field("link_mbits", report.link_mbits);
  canon.distribution("wait", report.wait_minutes);
  canon.field("replicated_titles",
              static_cast<std::uint64_t>(report.replicated_titles));
  canon.field("tail_slots_total", report.tail_slots_total);
  canon.field("broadcast_latency_min", report.broadcast_latency_min);
}

metro::Topology federation_topology() {
  return metro::Topology({{3.0, 60}, {2.0, 60}, {1.5, 60}, {1.0, 60}}, 8,
                         core::Minutes{0.5});
}

// metro::simulate_federation over four regions; faults darken one region
// mid-horizon so failover and spill routing take part.
TEST(EngineGoldenTest, SimulateFederation) {
  const auto topology = federation_topology();
  for (const auto seed : kSeeds) {
    for (const bool with_sink : {false, true}) {
      for (const bool faults : {false, true}) {
        const auto sink = make_sink(with_sink);
        const auto report = metro::simulate_federation(
            topology, federation_config(seed, faults, sink.get()));
        Canon canon;
        canon_federation(canon, report);
        if (sink != nullptr) {
          canon.sink(*sink);
        }
        expect_golden(variant("federation", seed, with_sink,
                              faults ? "faults" : "clean"),
                      canon);
      }
    }
  }
}

// The replicated federation folds replications (and their region sinks) in
// replication order: serial and pooled runs share one digest.
TEST(EngineGoldenTest, SimulateFederationReplicated) {
  const auto topology = federation_topology();
  util::TaskPool pool(3);
  for (const auto seed : kSeeds) {
    for (util::TaskPool* p : {static_cast<util::TaskPool*>(nullptr), &pool}) {
      const auto sink = make_sink(true);
      const auto replicated = metro::simulate_federation_replicated(
          topology, federation_config(seed, true, sink.get()), 3, p);
      Canon canon;
      canon_federation(canon, replicated.merged);
      canon.field("replications",
                  static_cast<std::uint64_t>(replicated.replications));
      canon.distribution("replication_mean_wait",
                         replicated.replication_mean_wait);
      canon.field("wait_mean_ci95", replicated.wait_mean_ci95);
      canon.sink(*sink);
      expect_golden(variant("federation_replicated", seed, true, "faults"),
                    canon);
    }
  }
}

}  // namespace
}  // namespace vodbcast
