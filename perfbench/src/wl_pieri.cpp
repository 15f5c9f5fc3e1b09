// pieri_tree: the paper's own workload.  A generic (m,p,q) = (3,2,2)
// instance from random_pieri_input (610 solutions, 2,815 edge jobs, charts
// up to n = 16) solved on 4 ranks under Policy::kFCFS, the paper's
// protocol.  --seed draws the planes and interpolation points of the
// kInstances instances a round solves.  Generic
// planes, not pole_placement_input: run_pieri does not rotate coordinates
// (README.md, named faults).

#include <optional>

#include "checks.hpp"
#include "layers.hpp"
#include "sched/pieri_scheduler.hpp"
#include "schubert/poset.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const pph::schubert::PieriProblem kProblem{3, 2, 2};
/// Instances per round: solve times differ by instance, so each run
/// averages over several.
constexpr std::size_t kInstances = 7;

struct Pass {
  sched::ParallelPieriReport report;
  sched::SessionStats stats;
  std::vector<double> latency_s;  // per tracked edge: call -> result on the master
  double seconds = 0.0;
};

/// One solve: run_pieri's composition (PieriTreeJobSource, DiscardSink,
/// Session under FCFS, assemble) with the program's LatencySink in front
/// of the sink.  A non-null `trace` (traced passes only) decorates the
/// tree source.
Pass solve(const pph::schubert::PieriInput& input, SourceTrace* trace) {
  Pass pass;
  const auto start = Clock::now();
  sched::PieriTreeJobSource source(input, pph::schubert::PieriSolverOptions{});
  std::optional<TimedJobSource> timed;
  if (trace != nullptr) timed.emplace(source, *trace);
  sched::JobSource& front = timed ? static_cast<sched::JobSource&>(*timed) : source;
  sched::DiscardSink discard;
  sched::LatencySink latency(discard);
  sched::Session session(front, latency,
                         sched::SessionOptions().with_policy(sched::Policy::kFCFS));
  pass.stats = session.run(kRanks);
  source.assemble(pass.report);
  pass.seconds = seconds_since(start);
  pass.latency_s = latency.latencies().samples();
  return pass;
}

void account(Outcome& out, const pph::schubert::PieriInput& input, const Pass& pass) {
  const auto verdict = checks::check_pieri(input, pass.report.solutions);
  // Operations are the published solutions: a shortfall is failed
  // operations; a solution that fails a condition, coincides with another,
  // or exceeds the published count is a wrong output.
  out.attempted += verdict.expected;
  out.failed += verdict.solutions < verdict.expected ? verdict.expected - verdict.solutions : 0;
  out.check(verdict.expected != 0, "no published count for this problem");
  out.check(verdict.bad_residual == 0 && verdict.duplicate_pairs == 0 &&
                verdict.solutions <= verdict.expected,
            "pieri: " + verdict.describe());
  out.note("pieri pass: " + verdict.describe());
}

/// The instances a round solves, and the poset of their problem.
struct Inputs {
  std::vector<pph::schubert::PieriInput> instances;
  std::optional<pph::schubert::PatternPoset> poset;
};

Inputs build_inputs(std::uint64_t seed) {
  pph::util::Prng rng(seed);
  Inputs in;
  for (std::size_t k = 0; k < kInstances; ++k) {
    in.instances.push_back(pph::schubert::random_pieri_input(kProblem, rng));
  }
  in.poset.emplace(kProblem);
  return in;
}

}  // namespace

Outcome run_pieri_tree(const Options& opt) {
  Outcome out;
  SetupSampler setup;
  const auto build = [&] { return build_inputs(opt.seed); };
  const Inputs in = setup.keep(build);
  setup.sample(build, 0.1, 3);
  const auto& inputs = in.instances;

  solve(inputs[0], nullptr);  // warm-up, discarded

  // Whole rounds: every instance once per round (and, traced, once more
  // through the decorators right after its untraced solve).
  std::vector<double> untraced, traced, latency, round_seconds;
  std::uint64_t edges = 0, traced_edges = 0, rescues = 0;
  std::size_t peak_instances = 0;
  Window window(opt.seconds, 1);
  Pass last_traced;
  SourceTrace trace;
  while (window.another(round_seconds)) {
    const auto round_start = Clock::now();
    for (const auto& input : inputs) {
      const Pass pass = solve(input, nullptr);
      account(out, input, pass);
      untraced.push_back(pass.seconds);
      setup.sample(build, 0.05);
      edges += pass.report.total_jobs;
      latency.insert(latency.end(), pass.latency_s.begin(), pass.latency_s.end());
      if (!opt.trace) continue;
      last_traced = solve(input, &trace);
      account(out, input, last_traced);
      traced.push_back(last_traced.seconds);
      traced_edges += last_traced.report.total_jobs;
      rescues += last_traced.report.rescue_retracks;
      peak_instances = std::max(peak_instances, last_traced.report.peak_active_instances);
    }
    round_seconds.push_back(seconds_since(round_start));
  }

  out.note(pass_times("untraced solve passes", untraced));
  if (opt.trace) out.note(pass_times("traced solve passes", traced));
  if (!opt.trace) {
    double total = 0.0;
    for (const double s : untraced) total += s;
    out.set("setup_s", setup.median_seconds());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("solve_s", total / static_cast<double>(untraced.size()));
    out.set("items_per_s", static_cast<double>(edges) / total);
    out.set("latency_p50_ms", 1e3 * percentile(latency, 50.0));
    out.set("latency_p99_ms", 1e3 * percentile(latency, 99.0));
    return out;
  }

  // Layer figures pool every traced solve of the run.
  const auto& edge_records = trace.consumed;
  const double solves = static_cast<double>(traced.size());
  record_homotopy_layer(out, edge_records);
  // Chart dimension of an edge == its tree level.
  record_linalg_layer(out, edge_records, [](const sched::TrackedPath& tp) {
    return static_cast<std::size_t>(tp.level);
  });
  const auto& per_level = last_traced.report.jobs_per_level;
  const auto fused = pieri_fused_ns_per_level(inputs.back());
  double weighted = 0.0, jobs = 0.0;
  for (std::size_t l = 0; l < per_level.size() && l < fused.size(); ++l) {
    weighted += static_cast<double>(per_level[l]) * fused[l];
    jobs += static_cast<double>(per_level[l]);
  }
  out.set("eval.pieri_fused_ns", jobs > 0.0 ? weighted / jobs : 0.0);

  double last_level_s = 0.0, all_s = 0.0;
  for (const auto& tp : edge_records) {
    all_s += tp.seconds;
    if (tp.level == kProblem.condition_count()) last_level_s += tp.seconds;
  }
  std::vector<double> consume_us;
  for (const double s : trace.consume_seconds) consume_us.push_back(1e6 * s);
  out.set("schubert.edges", static_cast<double>(traced_edges) / solves);
  out.set("schubert.rescue_retracks", static_cast<double>(rescues) / solves);
  out.set("schubert.consume_us_p50", percentile(consume_us, 50.0));
  out.set("schubert.consume_us_p99", percentile(consume_us, 99.0));
  out.set("schubert.peak_active_instances", static_cast<double>(peak_instances));
  out.set("schubert.last_level_share", all_s > 0.0 ? last_level_s / all_s : 0.0);
  record_sched_layer(out, last_traced.stats, &trace);
  out.set("trace.overhead_pct", overhead_pct(traced, untraced));
  return out;
}

}  // namespace perfbench
