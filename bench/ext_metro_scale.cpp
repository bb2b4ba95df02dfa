// Extension bench: the metro-scale hot path at a million arrivals.
//
// The paper pitches SB for metropolitan VoD; this bench actually runs a
// metropolitan campaign — >=1M Poisson arrivals over a 20-title catalog —
// through sim::simulate in a 2x2 sweep: phase-keyed plan cache on/off x
// streaming (sample-capped) wait statistics on/off. The acceptance story:
// the cache serves >=99% of arrivals from one canonical plan per phase and
// cuts the campaign's wall p50 by >=5x, while producing bit-identical
// results (clients served, wait mean/quantiles) to the recompute-per-client
// baseline; streaming stats bound report memory with exact count/mean and
// sketch-accurate quantiles.
//
// VODBCAST_BENCH_QUICK=1 scales the arrival rate down for CI smoke; the
// >=1M / >=99% / >=5x gates only apply to the full-size run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/text_table.hpp"

#include "harness/harness.hpp"

namespace {

struct CasePoint {
  vodbcast::sim::SimulationReport report;
  double wall_p50_ns = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  vodbcast::bench::Session session("ext_metro_scale", argc, argv);
  using namespace vodbcast;

  const char* quick_env = std::getenv("VODBCAST_BENCH_QUICK");
  const bool quick = quick_env != nullptr && quick_env[0] != '\0' &&
                     quick_env[0] != '0';
  // 2000/min over 600 min ~= 1.2M Poisson arrivals at full size.
  const double arrivals_per_minute = quick ? 200.0 : 2000.0;
  const core::Minutes horizon{600.0};
  const std::size_t stream_cap = 65536;

  std::puts("=== Extension: metro-scale campaign — plan cache x streaming"
            " stats ===");
  std::printf("(SB:W=52, 20 titles, 80 channels each, %.0f arrivals/min"
              " over %.0f min%s)\n\n",
              arrivals_per_minute, horizon.v,
              quick ? ", QUICK smoke" : "");

  // A dense metro head end: 2.4 Gb/s of server bandwidth over 20 titles
  // gives each an 80-channel skyscraper (W=52), so a recomputed reception
  // plan touches 80 downloads while a cached lookup stays O(1).
  const schemes::SkyscraperScheme scheme(52);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{2400.0},
      .num_videos = 20,
      .video = core::VideoParams{core::Minutes{120.0},
                                 core::MbitPerSec{1.5}},
  };

  const auto make_config = [&](bool cache, bool stream) {
    sim::SimulationConfig config;
    config.horizon = horizon;
    config.arrivals_per_minute = arrivals_per_minute;
    config.seed = 424242;
    config.plan_clients = true;
    config.plan_cache = cache;
    config.stats_sample_cap = stream ? stream_cap : 0;
    return config;
  };

  // Manual timing (Session clocks + record_case) so the same wall samples
  // that land in BENCH_ext_metro_scale.json also drive the acceptance
  // gates below. No sink inside the timed region — clean numbers.
  const auto run_case = [&](const std::string& name, bool cache,
                            bool stream) {
    const auto config = make_config(cache, stream);
    for (int i = 0; i < session.default_warmup(); ++i) {
      (void)sim::simulate(scheme, input, config);
    }
    const int reps = session.default_reps();
    std::vector<double> wall;
    std::vector<double> cpu;
    CasePoint point;
    for (int i = 0; i < reps; ++i) {
      const double w0 = bench::Session::wall_now_ns();
      const double c0 = bench::Session::cpu_now_ns();
      point.report = sim::simulate(scheme, input, config);
      cpu.push_back(bench::Session::cpu_now_ns() - c0);
      wall.push_back(bench::Session::wall_now_ns() - w0);
    }
    obs::BenchCaseResult result;
    result.name = name;
    result.reps = reps;
    result.warmup = session.default_warmup();
    result.wall_ns = obs::TimingStats::from_samples(std::move(wall));
    result.cpu_ns = obs::TimingStats::from_samples(std::move(cpu));
    point.wall_p50_ns = result.wall_ns.p50;
    session.record_case(std::move(result));
    return point;
  };

  const auto on_on = run_case("metro/cache_on_stream_on", true, true);
  const auto on_off = run_case("metro/cache_on_stream_off", true, false);
  const auto off_on = run_case("metro/cache_off_stream_on", false, true);
  const auto off_off = run_case("metro/cache_off_stream_off", false, false);

  // Evidence run, untimed: same campaign with the session sink attached so
  // the hit/miss counters and the plan_cache_hit_ns vs plan_reception_ns
  // A/B timing sketches land in the committed result's metrics footer.
  auto evidence_config = make_config(true, true);
  evidence_config.sink = &session.sink();
  const auto evidence = sim::simulate(scheme, input, evidence_config);

  const double hits = static_cast<double>(
      session.metrics().counter("sim.plan_cache.hits").value());
  const double misses = static_cast<double>(
      session.metrics().counter("sim.plan_cache.misses").value());
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double speedup = on_on.wall_p50_ns > 0.0
                             ? off_on.wall_p50_ns / on_on.wall_p50_ns
                             : 0.0;

  session.metrics().gauge("metro.arrivals")
      .set(static_cast<double>(on_on.report.clients_served));
  session.metrics().gauge("metro.plan_cache_hit_rate").set(hit_rate);
  session.metrics().gauge("metro.speedup_wall_p50").set(speedup);
  session.metrics().gauge("metro.latency_retained_bytes_exact")
      .set(static_cast<double>(off_off.report.latency_minutes
                                   .retained_bytes()));
  session.metrics().gauge("metro.latency_retained_bytes_stream")
      .set(static_cast<double>(on_on.report.latency_minutes
                                   .retained_bytes()));

  util::TextTable table({"case", "clients", "wall p50 (ms)", "wait mean",
                         "wait p99", "folded", "dist bytes"});
  const auto add_row = [&table](const char* name, const CasePoint& point) {
    const auto& waits = point.report.latency_minutes;
    table.add_row(
        {name,
         util::TextTable::num(
             static_cast<long long>(point.report.clients_served)),
         util::TextTable::num(point.wall_p50_ns / 1e6, 1),
         util::TextTable::num(waits.mean(), 5),
         util::TextTable::num(waits.quantile(0.99), 5),
         util::TextTable::num(
             static_cast<long long>(waits.samples_folded())),
         util::TextTable::num(
             static_cast<long long>(waits.retained_bytes()))});
  };
  add_row("cache on, stream on", on_on);
  add_row("cache on, stream off", on_off);
  add_row("cache off, stream on", off_on);
  add_row("cache off, stream off", off_off);
  std::puts(table.render().c_str());

  std::printf("plan-cache hit rate : %.4f%% (%.0f hits / %.0f lookups)\n",
              100.0 * hit_rate, hits, hits + misses);
  std::printf("wall p50 speedup    : %.2fx (cache off %.1f ms -> on %.1f"
              " ms, streaming on)\n",
              speedup, off_on.wall_p50_ns / 1e6, on_on.wall_p50_ns / 1e6);
  std::printf("report memory       : %zu bytes exact -> %zu bytes"
              " streaming\n",
              off_off.report.latency_minutes.retained_bytes(),
              on_on.report.latency_minutes.retained_bytes());

  bool ok = true;
  // Bit-identity: the cache must not change a single reported number.
  const auto identical = [&ok](const char* what, double a, double b) {
    if (a != b) {
      std::printf("FAIL: %s differs between cache on and off (%.17g vs"
                  " %.17g)\n", what, a, b);
      ok = false;
    }
  };
  identical("clients_served (exact)",
            static_cast<double>(on_off.report.clients_served),
            static_cast<double>(off_off.report.clients_served));
  identical("wait mean (exact)", on_off.report.latency_minutes.mean(),
            off_off.report.latency_minutes.mean());
  identical("wait p50 (exact)", on_off.report.latency_minutes.quantile(0.5),
            off_off.report.latency_minutes.quantile(0.5));
  identical("wait p99 (exact)", on_off.report.latency_minutes.quantile(0.99),
            off_off.report.latency_minutes.quantile(0.99));
  identical("clients_served (stream)",
            static_cast<double>(on_on.report.clients_served),
            static_cast<double>(off_on.report.clients_served));
  identical("wait mean (stream)", on_on.report.latency_minutes.mean(),
            off_on.report.latency_minutes.mean());
  identical("wait p50 (stream)", on_on.report.latency_minutes.quantile(0.5),
            off_on.report.latency_minutes.quantile(0.5));
  identical("wait p99 (stream)", on_on.report.latency_minutes.quantile(0.99),
            off_on.report.latency_minutes.quantile(0.99));
  if (evidence.jitter_events != 0 || on_on.report.jitter_events != 0) {
    std::puts("FAIL: jitter events in a metro campaign");
    ok = false;
  }

  if (!quick) {
    if (on_on.report.clients_served < 1000000) {
      std::printf("FAIL: campaign served %llu clients (< 1M)\n",
                  static_cast<unsigned long long>(
                      on_on.report.clients_served));
      ok = false;
    }
    if (hit_rate < 0.99) {
      std::printf("FAIL: plan-cache hit rate %.4f < 0.99\n", hit_rate);
      ok = false;
    }
    if (speedup < 5.0) {
      std::printf("FAIL: cache-on wall p50 speedup %.2fx < 5x\n", speedup);
      ok = false;
    }
  }

  std::puts(ok ? "\nOne canonical plan per phase serves the whole metro;"
                 " the campaign's\nresults do not change, only the time and"
                 " memory it takes to get them."
               : "\nWARNING: metro-scale acceptance gates failed");
  return ok ? 0 : 1;
}
