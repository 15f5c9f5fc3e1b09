// cyclic_drain: the paper's section II fixed start list.  The cyclic-7
// total-degree homotopy (5,040 paths, 924 finite roots) drained on 4 ranks
// under Policy::kBatchSteal.  The homotopy's gamma comes from a fixed seed
// chosen before looking at outcomes, so the paths the tracker loses are
// the same on every run and show up as counted failures; --seed only
// permutes the order the start list is handed out in.

#include <memory>
#include <optional>
#include <sstream>

#include "checks.hpp"
#include "homotopy/start_total_degree.hpp"
#include "layers.hpp"
#include "systems/cyclic.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCyclicN = 7;
constexpr std::uint64_t kGammaSeed = 3;

struct Inputs {
  std::unique_ptr<hom::ConvexHomotopy> homotopy;
  std::vector<hom::CVector> starts;
};

Inputs build_inputs(std::uint64_t seed) {
  pph::util::Prng rng(kGammaSeed);
  const auto target = pph::systems::cyclic(kCyclicN);
  const hom::TotalDegreeStart start(target, rng);
  Inputs in;
  in.homotopy = std::make_unique<hom::ConvexHomotopy>(start.system(), target, rng.unit_complex());
  in.starts = start.all_solutions();
  pph::util::Prng order(seed);
  order.shuffle(in.starts);
  return in;
}

struct Pass {
  sched::ParallelRunReport report;
  sched::SessionStats stats;
  std::vector<double> latency_s;  // per path: call -> result on the master
  double seconds = 0.0;
};

/// One drain: run_paths' composition (VectorJobSource, InMemoryReportSink,
/// Session) with the program's LatencySink in front of the report sink.
/// A non-null `trace` (traced passes only) decorates the job source.
Pass drain(const sched::PathWorkload& wl, SourceTrace* trace) {
  const auto opts = sched::SessionOptions().with_policy(sched::Policy::kBatchSteal);
  sched::VectorJobSource source(wl);
  std::optional<TimedJobSource> timed;
  if (trace != nullptr) timed.emplace(source, *trace);
  sched::JobSource& front = timed ? static_cast<sched::JobSource&>(*timed) : source;
  Pass pass;
  const auto start = Clock::now();
  sched::InMemoryReportSink sink;
  sched::LatencySink latency(sink);
  sched::Session session(front, latency, opts);
  pass.stats = session.run(kRanks);
  pass.report = sink.report(pass.stats);
  pass.seconds = seconds_since(start);
  pass.latency_s = latency.latencies().samples();
  return pass;
}

}  // namespace

void account_cyclic_pass(Outcome& out, std::size_t n, std::size_t paths,
                         const std::vector<sched::TrackedPath>& results) {
  std::vector<char> seen(paths, 0);
  std::vector<checks::Point> converged;
  std::size_t failed = 0, reported = 0;
  bool twice = false;
  for (const auto& tp : results) {
    if (tp.index >= paths || seen[tp.index] != 0) {
      twice = true;
      continue;
    }
    seen[tp.index] = 1;
    ++reported;
    if (tp.result.status == hom::PathStatus::kConverged) converged.push_back(tp.result.x);
    if (tp.result.status == hom::PathStatus::kFailed) ++failed;
  }
  const auto verdict = checks::check_cyclic_roots(n, converged);
  out.attempted += paths + 1;
  out.failed += failed + (paths - reported) + (verdict.complete() ? 0 : 1);
  out.check(!twice, "a path was reported twice or out of range");
  out.check(verdict.valid(), "cyclic-" + std::to_string(n) + ": " + verdict.describe());
  std::ostringstream os;
  os << "cyclic-" << n << " pass: " << failed << " kFailed of " << paths << ", "
     << verdict.describe();
  out.note(os.str());
}

Outcome run_cyclic_drain(const Options& opt) {
  Outcome out;
  SetupSampler setup;
  const auto build = [&] { return build_inputs(opt.seed); };
  const Inputs in = setup.keep(build);
  setup.sample(build, 0.1, 3);
  sched::PathWorkload wl;
  wl.homotopy = in.homotopy.get();
  wl.starts = &in.starts;
  const std::size_t paths = in.starts.size();

  drain(wl, nullptr);  // warm-up, discarded

  std::vector<double> untraced, traced, latency;
  Window window(opt.seconds, opt.trace ? 2 : 3);
  Pass last_traced;
  SourceTrace trace;
  std::unique_ptr<TimedHomotopy> timed_h;
  while (window.another(untraced)) {
    Pass pass = drain(wl, nullptr);
    account_cyclic_pass(out, kCyclicN, paths, pass.report.paths);
    untraced.push_back(pass.seconds);
    setup.sample(build, 0.03);
    latency.insert(latency.end(), pass.latency_s.begin(), pass.latency_s.end());
    if (!opt.trace) continue;
    timed_h = std::make_unique<TimedHomotopy>(*in.homotopy);
    sched::PathWorkload twl = wl;
    twl.homotopy = timed_h.get();
    trace = SourceTrace{};
    last_traced = drain(twl, &trace);
    account_cyclic_pass(out, kCyclicN, paths, last_traced.report.paths);
    traced.push_back(last_traced.seconds);
  }

  out.note(pass_times("untraced drain passes" , untraced));
  if (opt.trace) out.note(pass_times("traced drain passes", traced));
  if (!opt.trace) {
    const double solve = median(untraced);
    out.set("setup_s", setup.median_seconds());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("solve_s", solve);
    out.set("items_per_s", static_cast<double>(paths) / solve);
    out.set("latency_p50_ms", 1e3 * percentile(latency, 50.0));
    out.set("latency_p99_ms", 1e3 * percentile(latency, 99.0));
    return out;
  }

  const auto& tpaths = last_traced.report.paths;
  double track_s = 0.0;
  for (const auto& tp : tpaths) track_s += tp.seconds;
  record_homotopy_layer(out, tpaths);
  out.set("eval.calls", static_cast<double>(timed_h->calls()));
  out.set("eval.ns_per_call", 1e9 * timed_h->seconds() / static_cast<double>(timed_h->calls()));
  out.set("eval.share_of_track", timed_h->seconds() / track_s);
  record_linalg_layer(out, tpaths, [](const sched::TrackedPath&) { return kCyclicN; });
  record_sched_layer(out, last_traced.stats, &trace);
  out.set("trace.overhead_pct", overhead_pct(traced, untraced));
  return out;
}

}  // namespace perfbench
