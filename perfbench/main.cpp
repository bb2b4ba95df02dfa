// perfbench_driver: runs one benchmark campaign in a fresh process.
//
//   perfbench_driver --workload NAME --seed N --mode setup|campaign|traced
//                    [--t0 NS] [--spans PATH]
//
// --t0 is the CLOCK_MONOTONIC instant (ns) the parent spawned this process;
// set-up time runs from there to the campaign call. Memory is read in the
// same process as the one campaign it runs, so ru_maxrss, a high-water
// mark, holds nothing from earlier runs. Prints one JSON object on stdout.
//
//   setup    : set up the workload and stop before the campaign call.
//   campaign : set up, run the campaign untraced, check its outputs.
//   traced   : as campaign, then replay each layer in spans of the
//              benchmark's own clock; writes the spans to --spans as JSONL.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaigns.hpp"
#include "span_log.hpp"

namespace {

using perfbench::now_ns;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resident set right now, from /proc/self/statm.
double rss_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  if (fields != 2) {
    throw std::runtime_error("malformed /proc/self/statm");
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Peak resident set of this process so far.
double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode = "campaign";
  std::optional<std::int64_t> t0;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--t0") {
      args.t0 = std::stoll(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (args.mode != "setup" && args.mode != "campaign" &&
      args.mode != "traced") {
    throw std::invalid_argument("unknown --mode " + args.mode);
  }
  if (args.mode == "traced" && args.spans.empty()) {
    throw std::invalid_argument("--mode traced needs --spans");
  }
  return args;
}

/// One flat JSON object, built up and printed only once the run succeeded.
class JsonObject {
 public:
  void number(const std::string& key, double value) {
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    raw(key, text);
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int run(const Args& args, std::int64_t t0) {
  const auto campaign = perfbench::make_campaign(args.workload, args.seed);
  if (campaign == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  JsonObject result;
  result.number("setup_s", static_cast<double>(now_ns() - t0) * 1e-9);
  if (args.mode == "setup") {
    std::printf("%s\n", result.str().c_str());
    return 0;
  }

  const bool traced = args.mode == "traced";
  perfbench::SpanLog log;
  const double rss_before = rss_bytes();
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t arrivals = 0;
  {
    std::optional<perfbench::SpanLog::Scope> span;
    if (traced) {
      span.emplace(log, "campaign");
    }
    const double cpu0 = process_cpu_seconds();
    const auto wall0 = now_ns();
    arrivals = campaign->run();
    wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
    cpu_s = process_cpu_seconds() - cpu0;
  }
  const double peak = peak_rss_bytes();

  perfbench::Checks checks;
  campaign->check(checks);
  std::string failures;
  for (const auto& failure : checks.failures()) {
    std::fprintf(stderr, "perfbench_driver: check failed: %s\n",
                 failure.c_str());
    failures += (failures.empty() ? "\"" : ",\"") + failure + "\"";
  }
  result.number("wall_s", wall_s);
  result.number("cpu_s", cpu_s);
  result.number("arrivals", static_cast<double>(arrivals));
  result.number("rss_before_bytes", rss_before);
  result.number("peak_rss_bytes", peak);
  result.number("workers", campaign->workers());
  result.number("host_threads", std::thread::hardware_concurrency());
  result.number("checks", static_cast<double>(checks.run()));
  result.raw("failures", "[" + failures + "]");

  if (traced) {
    perfbench::LayerMetrics layers;
    double unspanned_s = 0.0;
    {
      const perfbench::SpanLog::Scope span(log, "replay");
      unspanned_s = campaign->replay(log, layers);
    }
    // A layer the workload bypasses still gets its span, which then wraps
    // nothing, and zero counters.
    const auto& names = perfbench::layer_names();
    const auto replayed = log.self_seconds();
    for (const auto& name : names.spans) {
      if (replayed.count(name) == 0 && layers.count(name + "_s") == 0) {
        const perfbench::SpanLog::Scope bypassed(log, name);
      }
    }
    const auto self = log.self_seconds();
    for (const auto& name : names.spans) {
      if (layers.count(name + "_s") == 0) {
        layers[name + "_s"] = self.at(name);
      }
    }
    for (const auto& name : names.counters) {
      layers.try_emplace(name, 0.0);
    }
    layers["residual_share"] =
        1.0 - (log.layer_sum_seconds() + unspanned_s) / wall_s;
    log.write_jsonl(args.spans);
    JsonObject layer_json;
    for (const auto& [name, value] : layers) {
      layer_json.number(name, value);
    }
    result.raw("layers", layer_json.str());
  }
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = now_ns();
  try {
    const Args args = parse(argc, argv);
    return run(args, args.t0.value_or(start));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
