// serve_poisson: cyclic-6 paths (720 per pass) served as requests through
// Session::serve and a StreamJobSource under FCFS on 4 ranks.  Phase 1 is
// an open loop: a seeded Poisson trace at one fixed absolute rate, each
// request timed from its scheduled arrival (not from admission, which
// would hide how late the serve loop polled).  Phase 2 is a burst where
// every request arrives at t = 0.  The homotopy's gamma is fixed; --seed
// draws the arrival traces.

#include <memory>

#include "checks.hpp"
#include "homotopy/start_total_degree.hpp"
#include "layers.hpp"
#include "sched/arrival.hpp"
#include "sched/stream_source.hpp"
#include "systems/cyclic.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCyclicN = 6;
constexpr std::uint64_t kGammaSeed = 3;
/// Offered load of phase 1 in requests/s: fixed, so a faster program is
/// not offered more work.  About a quarter of the burst capacity on the
/// reference host (README.md), low enough that the host's slow phases do
/// not push the queue towards saturation.
constexpr double kPoissonRate = 500.0;

struct Inputs {
  std::unique_ptr<hom::ConvexHomotopy> homotopy;
  std::vector<hom::CVector> starts;
  std::vector<double> first_trace;
};

std::vector<double> poisson_trace(std::uint64_t seed, std::size_t pass, std::size_t n) {
  pph::sched::PoissonArrivals process(kPoissonRate);
  pph::util::Prng rng(seed * 0x9e3779b97f4a7c15ULL + pass);
  return pph::sched::arrival_times(process, rng, n);
}

Inputs build_inputs(std::uint64_t seed) {
  pph::util::Prng rng(kGammaSeed);
  const auto target = pph::systems::cyclic(kCyclicN);
  const hom::TotalDegreeStart start(target, rng);
  Inputs in;
  in.homotopy = std::make_unique<hom::ConvexHomotopy>(start.system(), target, rng.unit_complex());
  in.starts = start.all_solutions();
  in.first_trace = poisson_trace(seed, 0, in.starts.size());
  return in;
}

/// Records each result with the service clock's time of arrival on the
/// master.
class ArrivalSink final : public sched::ResultSink {
 public:
  explicit ArrivalSink(const sched::StreamJobSource& stream) : stream_(stream) {}
  void accept(const sched::TrackedPath& tp) override {
    records.push_back(tp);
    at.push_back(stream_.now());
  }
  std::vector<sched::TrackedPath> records;
  std::vector<double> at;

 private:
  const sched::StreamJobSource& stream_;
};

struct ServePass {
  sched::SessionStats stats;
  std::vector<sched::TrackedPath> records;
  std::vector<double> sojourn_s;    // result on the master - scheduled arrival
  std::vector<double> wait_s;       // sojourn - tracking time
  std::vector<double> admit_lag_s;  // admission - scheduled arrival (traced)
  double seconds = 0.0;
};

ServePass serve(const sched::PathWorkload& wl, const std::vector<double>& trace, bool traced) {
  sched::VectorJobSource inner(wl);
  sched::StreamJobSource stream(inner, trace);
  ArrivalSink sink(stream);
  ServePass pass;
  if (traced) {
    stream.set_admit_observer(
        [&](sched::JobId id) { pass.admit_lag_s.push_back(stream.now() - trace[id]); });
  }
  sched::Session session(stream, sink, sched::SessionOptions());
  const auto start = Clock::now();
  pass.stats = session.serve(kRanks);
  pass.seconds = seconds_since(start);
  for (std::size_t i = 0; i < sink.records.size(); ++i) {
    const auto& tp = sink.records[i];
    const double sojourn = sink.at[i] - trace.at(tp.index);
    pass.sojourn_s.push_back(sojourn);
    pass.wait_s.push_back(sojourn - tp.seconds);
  }
  pass.records = std::move(sink.records);
  return pass;
}

void account(Outcome& out, std::size_t n, const ServePass& pass) {
  std::vector<std::size_t> ids;
  for (const auto& tp : pass.records) ids.push_back(tp.index);
  out.check(checks::requests_accounted(pass.stats.service, n, ids),
            "serve: a request is missing from the accounting (terminal " +
                std::to_string(pass.stats.service.terminal_requests()) + " of " +
                std::to_string(n) + ")");
  account_cyclic_pass(out, kCyclicN, n, pass.records);
}

}  // namespace

Outcome run_serve_poisson(const Options& opt) {
  Outcome out;
  SetupSampler setup;
  const auto build = [&] { return build_inputs(opt.seed); };
  const Inputs in = setup.keep(build);
  setup.sample(build, 0.1, 3);
  sched::PathWorkload wl;
  wl.homotopy = in.homotopy.get();
  wl.starts = &in.starts;
  const std::size_t n = in.starts.size();
  const std::vector<double> burst(n, 0.0);

  // Warm-up, discarded: a burst and a Poisson pass (the first Poisson
  // pass of a process runs markedly slower than the rest).
  serve(wl, burst, false);
  serve(wl, in.first_trace, false);

  // Rounds of one open-loop Poisson pass at the fixed rate (phase 1) and
  // one burst (phase 2), so both phases sample the whole run.  Traced runs
  // add a burst through the decorators after the untraced one, for the
  // tracing overhead.
  std::unique_ptr<TimedHomotopy> timed_h;
  sched::PathWorkload twl = wl;
  std::vector<double> sojourn, wait, admit_lag, round_seconds, untraced, traced;
  std::size_t max_depth = 0;
  std::vector<double> round_p99, round_p50;
  ServePass last_traced;
  Window window(opt.seconds, 2);
  for (std::size_t round = 0; window.another(round_seconds); ++round) {
    const auto round_start = Clock::now();
    const auto trace = poisson_trace(opt.seed, round + 1, n);
    if (opt.trace) {
      timed_h = std::make_unique<TimedHomotopy>(*in.homotopy);
      twl.homotopy = timed_h.get();
    }
    const ServePass poisson = serve(opt.trace ? twl : wl, trace, opt.trace);
    account(out, n, poisson);
    sojourn.insert(sojourn.end(), poisson.sojourn_s.begin(), poisson.sojourn_s.end());
    wait.insert(wait.end(), poisson.wait_s.begin(), poisson.wait_s.end());
    admit_lag.insert(admit_lag.end(), poisson.admit_lag_s.begin(), poisson.admit_lag_s.end());
    max_depth = std::max(max_depth, poisson.stats.service.max_queue_depth);
    round_p99.push_back(percentile(poisson.sojourn_s, 99.0));
    round_p50.push_back(percentile(poisson.sojourn_s, 50.0));

    const ServePass pass = serve(wl, burst, false);
    account(out, n, pass);
    untraced.push_back(pass.seconds);
    setup.sample(build, 0.02);
    if (opt.trace) {
      timed_h = std::make_unique<TimedHomotopy>(*in.homotopy);
      twl.homotopy = timed_h.get();
      last_traced = serve(twl, burst, true);
      account(out, n, last_traced);
      traced.push_back(last_traced.seconds);
    }
    round_seconds.push_back(seconds_since(round_start));
  }
  out.note("phase 1: " + std::to_string(sojourn.size()) + " requests at " +
           std::to_string(kPoissonRate) + " req/s offered");

  out.note(pass_times("untraced burst passes", untraced));
  out.note(pass_times("sojourn p50 per round", round_p50));
  out.note(pass_times("sojourn p99 per round", round_p99));
  if (opt.trace) out.note(pass_times("traced burst passes", traced));
  if (!opt.trace) {
    const double solve = median(untraced);
    out.set("setup_s", setup.median_seconds());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("solve_s", solve);
    out.set("items_per_s", static_cast<double>(n) / solve);
    // Per-round percentiles, median over rounds: a round whose tail met
    // one of the host's stalls does not move the figure.
    out.set("latency_p50_ms", 1e3 * median(round_p50));
    out.set("latency_p99_ms", 1e3 * median(round_p99));
    return out;
  }

  // Tracking-side layers from the last traced burst (timed_h wraps its
  // homotopy), queueing layers from the phase-1 passes.
  const auto& records = last_traced.records;
  double track_s = 0.0;
  for (const auto& tp : records) track_s += tp.seconds;
  record_homotopy_layer(out, records);
  out.set("eval.calls", static_cast<double>(timed_h->calls()));
  out.set("eval.ns_per_call", 1e9 * timed_h->seconds() / static_cast<double>(timed_h->calls()));
  out.set("eval.share_of_track", timed_h->seconds() / track_s);
  record_linalg_layer(out, records, [](const sched::TrackedPath&) { return kCyclicN; });
  record_sched_layer(out, last_traced.stats, nullptr);
  out.set("sched.serve.wait_ms_p50", 1e3 * percentile(wait, 50.0));
  out.set("sched.serve.wait_ms_p99", 1e3 * percentile(wait, 99.0));
  out.set("sched.serve.admit_lag_ms_p99", 1e3 * percentile(admit_lag, 99.0));
  out.set("sched.serve.max_queue_depth", static_cast<double>(max_depth));
  out.set("trace.overhead_pct", overhead_pct(traced, untraced));
  return out;
}

}  // namespace perfbench
