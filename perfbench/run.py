#!/usr/bin/env python3
"""The repo benchmark: host cost of metro-scale campaigns, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (perfbench_driver plus the library in src/) into .bench_build/.

Every campaign runs in a fresh perfbench_driver process, so the peak resident set it
reports belongs to that one campaign. For S seconds the runner alternates
set-up-only processes with campaign processes and reports medians:

  --trace 0  the end-to-end metrics of BENCHMARK.json;
  --trace 1  untraced campaigns for half the time, then one traced process
             that replays each layer inside spans of the benchmark's own
             clock (written to .bench_build/spans/); prints the per-layer
             metrics of BENCHMARK.json.

Every campaign's outputs are checked; the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count output checks. The line before it records the seed, arrival
count, worker count, host threads and failed_check_share (failed / attempted,
which BENCHMARK.json carries as check_pass_share = 1 - failed_check_share,
a metric that is never 0). Before printing, the runner checks
that every metric it prints is declared in BENCHMARK.json with the same
unit, and that perfbench/workloads.json maps every per-layer metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPANS = os.path.join(ROOT, ".bench_build", "spans")

# Set-up-only processes spawned before each campaign: set-up is short, so
# several samples per campaign keep its median steady.
SETUPS_PER_CAMPAIGN = 4
MIN_CAMPAIGNS = 3
CHILD_TIMEOUT_S = 150
# Cores of a shared host differ in speed, and a child starts on its parent's
# core, so each run would otherwise be timed on whichever core it happened to
# land on. Children are pinned in rotation over the usable cores instead.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "arrivals_per_s": "1/s",
    "cpu_us_per_arrival": "us",
    "peak_rss_mb": "MiB",
    "bytes_per_arrival": "bytes",
    "setup_s": "s",
    "check_pass_share": "share",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def cores(slot, width):
    """The `width` cores of rotation slot `slot`."""
    return {CPUS[(slot * width + k) % len(CPUS)] for k in range(width)}


def spawn(workload, seed, mode, cpus, spans=None):
    args = [DRIVER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        args += ["--spans", spans]
    # The child inherits the runner's affinity.
    os.sched_setaffinity(0, cpus)
    args += ["--t0", str(time.monotonic_ns())]
    try:
        child = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S} s")
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        fail(f"{workload} {mode} run exited with {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, width, setups):
    """Alternates set-up-only and campaign processes until `seconds` pass
    and every rotation slot has run the same number of campaigns."""
    period = len(CPUS) // math.gcd(len(CPUS), width)
    deadline = time.monotonic() + seconds
    campaigns = []
    while (len(campaigns) < MIN_CAMPAIGNS or time.monotonic() < deadline
           or len(campaigns) % period):
        slot = len(campaigns)
        for k in range(SETUPS_PER_CAMPAIGN):
            setups.append(spawn(workload, seed, "setup",
                                cores(slot * SETUPS_PER_CAMPAIGN + k, 1))["setup_s"])
        campaign = spawn(workload, seed, "campaign", cores(slot, width))
        setups.append(campaign["setup_s"])
        campaigns.append(campaign)
    return campaigns


def check_totals(campaigns):
    """Output checks run and failed over every campaign process."""
    return (sum(c["checks"] for c in campaigns),
            sum(len(c["failures"]) for c in campaigns))


def end_to_end(campaigns, setups):
    def median(f):
        return statistics.median(f(c) for c in campaigns)

    checks, failed = check_totals(campaigns)
    return {
        "arrivals_per_s": median(lambda c: c["arrivals"] / c["wall_s"]),
        "cpu_us_per_arrival": median(lambda c: c["cpu_s"] * 1e6 / c["arrivals"]),
        "peak_rss_mb": median(lambda c: c["peak_rss_bytes"] / 2**20),
        "bytes_per_arrival": median(
            lambda c: (c["peak_rss_bytes"] - c["rss_before_bytes"]) / c["arrivals"]),
        "setup_s": statistics.median(setups),
        "check_pass_share": (checks - failed) / checks,
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "share", "speedup")):
        return "ratio"
    return "count"


def self_test(metrics, declared, benchmark, mapping):
    """Every printed metric is declared in BENCHMARK.json with its unit and
    every declared one is printed; workloads.json describes every workload
    and maps every per-layer metric."""
    problems = []
    for name, metric in metrics.items():
        if name not in declared:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif declared[name] != metric["unit"]:
            problems.append(f"metric {name} prints unit {metric['unit']}, "
                            f"BENCHMARK.json says {declared[name]}")
    problems += [f"metric {name} is declared but not printed"
                 for name in declared if name not in metrics]
    problems += [f"workload {w['name']} has no entry in workloads.json"
                 for w in benchmark["workloads"] if w["name"] not in mapping["workloads"]]
    problems += [f"per-layer metric {m['name']} has no entry in workloads.json"
                 for m in benchmark["per_layer"] if m["name"] not in mapping["per_layer"]]
    if problems:
        fail("self-test: " + "; ".join(problems))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        mapping = json.load(f)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    width = min(len(CPUS), mapping["workloads"][args.workload]["workers"])
    setups = []
    if args.trace == 0:
        campaigns = run_untraced(args.workload, args.seed, args.seconds, width, setups)
        values = end_to_end(campaigns, setups)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    else:
        campaigns = run_untraced(args.workload, args.seed, args.seconds / 2, width, setups)
        os.makedirs(SPANS, exist_ok=True)
        traced = spawn(args.workload, args.seed, "traced", cores(len(campaigns), width),
                       os.path.join(SPANS, f"{args.workload}-{args.seed}.jsonl"))
        campaigns.append(traced)
        layers = dict(traced["layers"])
        untraced_wall = statistics.median(c["wall_s"] for c in campaigns[:-1])
        layers["trace_overhead_share"] = traced["wall_s"] / untraced_wall - 1.0
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    self_test(metrics, declared, benchmark, mapping)

    checks, failed = check_totals(campaigns)
    last = campaigns[-1]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "arrivals": int(last["arrivals"]),
        "workers": int(last["workers"]),
        "host_threads": int(last["host_threads"]),
        "campaigns": len(campaigns),
        "setup_samples": len(setups),
        "failed_check_share": failed / checks,
        "failed_checks": sorted({f for c in campaigns for f in c["failures"]}),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
