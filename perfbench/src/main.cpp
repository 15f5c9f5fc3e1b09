// pphbench: one workload per process.
//
//   pphbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Human-readable context goes to stderr; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end table below, with --trace 1 the
// per-layer table (layers a workload does not exercise read 0).  run.py
// builds this binary and checks the names against BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},      {"solve_s", "s"},
    {"items_per_s", "1/s"},   {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"homotopy.track_us_p50", "us"},
    {"homotopy.track_us_p99", "us"},
    {"homotopy.newton_per_path", "count"},
    {"homotopy.steps_per_path", "count"},
    {"homotopy.reject_ratio", "ratio"},
    {"homotopy.ns_per_newton", "ns"},
    {"homotopy.failed_paths", "count"},
    {"eval.calls", "count"},
    {"eval.ns_per_call", "ns"},
    {"eval.share_of_track", "ratio"},
    {"eval.pieri_fused_ns", "ns"},
    {"linalg.lu_ns_n7", "ns"},
    {"linalg.lu_ns_n16", "ns"},
    {"linalg.share_per_newton", "ratio"},
    {"schubert.edges", "count"},
    {"schubert.rescue_retracks", "count"},
    {"schubert.consume_us_p50", "us"},
    {"schubert.consume_us_p99", "us"},
    {"schubert.peak_active_instances", "count"},
    {"schubert.last_level_share", "ratio"},
    {"sched.dispatches", "count"},
    {"sched.steals", "count"},
    {"sched.worker_busy_share", "ratio"},
    {"sched.overhead_us_p50", "us"},
    {"sched.overhead_us_p99", "us"},
    {"sched.serve.wait_ms_p50", "ms"},
    {"sched.serve.wait_ms_p99", "ms"},
    {"sched.serve.admit_lag_ms_p99", "ms"},
    {"sched.serve.max_queue_depth", "count"},
    {"mp.payload_bytes_per_job", "B"},
    {"store.bytes_per_record", "B"},
    {"store.open_ms", "ms"},
    {"store.random_access_us", "us"},
    {"store.scan_ms", "ms"},
    {"store.dedup_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pphbench: %s\nusage: pphbench --workload <pieri_tree|cyclic_drain|"
               "serve_poisson|store_query> --seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" || flag == "--seconds") {
      try {
        if (flag == "--seed") opt.seed = std::stoull(value);
        else opt.seconds = std::stod(value);
      } catch (const std::exception&) {
        usage(("bad value for " + flag + ": " + value).c_str());
      }
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scratch") {
      opt.scratch = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome out;
  try {
    if (opt.workload == "pieri_tree") {
      out = perfbench::run_pieri_tree(opt);
    } else if (opt.workload == "cyclic_drain") {
      out = perfbench::run_cyclic_drain(opt);
    } else if (opt.workload == "serve_poisson") {
      out = perfbench::run_serve_poisson(opt);
    } else if (opt.workload == "store_query") {
      out = perfbench::run_store_query(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pphbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::map<std::string, double> measured;
  for (const auto& m : out.metrics) measured[m.name] = m.value;
  for (const auto& line : out.notes) std::fprintf(stderr, "%s\n", line.c_str());
  for (const auto& line : out.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = measured.find(spec.name);
    if (it == measured.end() && required) {
      std::fprintf(stderr, "pphbench: %s did not measure %s\n", opt.workload.c_str(), spec.name);
      std::exit(1);
    }
    const double value = it == measured.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "pphbench: %s measured a non-finite %s\n", opt.workload.c_str(),
                   spec.name);
      std::exit(1);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += first ? "" : ", ";
    json += std::string("\"") + spec.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
    std::fprintf(stderr, "  %-34s %14.6g %s\n", spec.name, value, spec.unit);
  };
  if (opt.trace) {
    for (const auto& spec : kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, true);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
