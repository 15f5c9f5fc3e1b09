#include "layers.hpp"

#include "linalg/lu.hpp"
#include "schubert/pieri_homotopy.hpp"
#include "schubert/poset.hpp"
#include "util/prng.hpp"

namespace perfbench {

void TimedHomotopy::count(Clock::time_point start) const {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start);
  calls_.fetch_add(1, std::memory_order_relaxed);
  nanos_.fetch_add(static_cast<std::uint64_t>(ns.count()), std::memory_order_relaxed);
}

hom::CVector TimedHomotopy::evaluate(const hom::CVector& x, double t) const {
  const auto start = Clock::now();
  auto h = inner_.evaluate(x, t);
  count(start);
  return h;
}

hom::CMatrix TimedHomotopy::jacobian_x(const hom::CVector& x, double t) const {
  const auto start = Clock::now();
  auto j = inner_.jacobian_x(x, t);
  count(start);
  return j;
}

hom::CVector TimedHomotopy::derivative_t(const hom::CVector& x, double t) const {
  const auto start = Clock::now();
  auto d = inner_.derivative_t(x, t);
  count(start);
  return d;
}

std::pair<hom::CVector, hom::CMatrix> TimedHomotopy::evaluate_with_jacobian(const hom::CVector& x,
                                                                            double t) const {
  const auto start = Clock::now();
  auto hj = inner_.evaluate_with_jacobian(x, t);
  count(start);
  return hj;
}

void TimedHomotopy::evaluate_into(const hom::CVector& x, double t, hom::HomotopyWorkspace* ws,
                                  hom::CVector& h) const {
  const auto start = Clock::now();
  inner_.evaluate_into(x, t, ws, h);
  count(start);
}

void TimedHomotopy::evaluate_with_jacobian_into(const hom::CVector& x, double t,
                                                hom::HomotopyWorkspace* ws, hom::CVector& h,
                                                hom::CMatrix& jx) const {
  const auto start = Clock::now();
  inner_.evaluate_with_jacobian_into(x, t, ws, h, jx);
  count(start);
}

void TimedHomotopy::evaluate_fused(const hom::CVector& x, double t, hom::HomotopyWorkspace* ws,
                                   hom::CVector& h, hom::CMatrix& jx, hom::CVector& ht) const {
  const auto start = Clock::now();
  inner_.evaluate_fused(x, t, ws, h, jx, ht);
  count(start);
}

sched::JobId TimedJobSource::pop() {
  const sched::JobId id = inner_.pop();
  popped_[id] = Clock::now();
  return id;
}

std::vector<std::byte> TimedJobSource::job_payload(sched::JobId id) const {
  auto payload = inner_.job_payload(id);
  trace_.payload_bytes += payload.size();
  ++trace_.payloads;
  return payload;
}

bool TimedJobSource::consume(sched::TrackedPath& tp) {
  const auto arrived = Clock::now();
  if (const auto it = popped_.find(tp.index); it != popped_.end()) {
    const double span = std::chrono::duration<double>(arrived - it->second).count();
    trace_.overhead_seconds.push_back(span - tp.seconds);
    popped_.erase(it);
  }
  const bool fresh = inner_.consume(tp);
  trace_.consume_seconds.push_back(seconds_since(arrived));
  trace_.consumed.push_back(tp);
  return fresh;
}

void record_homotopy_layer(Outcome& out, const std::vector<sched::TrackedPath>& paths) {
  std::vector<double> track_us;
  double seconds = 0.0;
  std::uint64_t newton = 0, steps = 0, rejections = 0, failed = 0;
  for (const auto& tp : paths) {
    track_us.push_back(1e6 * tp.seconds);
    seconds += tp.seconds;
    newton += tp.result.newton_iterations;
    steps += tp.result.steps;
    rejections += tp.result.rejections;
    if (tp.result.status == hom::PathStatus::kFailed) ++failed;
  }
  const double n = paths.empty() ? 1.0 : static_cast<double>(paths.size());
  out.set("homotopy.track_us_p50", percentile(track_us, 50.0));
  out.set("homotopy.track_us_p99", percentile(track_us, 99.0));
  out.set("homotopy.newton_per_path", static_cast<double>(newton) / n);
  out.set("homotopy.steps_per_path", static_cast<double>(steps) / n);
  out.set("homotopy.reject_ratio",
          steps + rejections == 0
              ? 0.0
              : static_cast<double>(rejections) / static_cast<double>(steps + rejections));
  out.set("homotopy.ns_per_newton", newton == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(newton));
  out.set("homotopy.failed_paths", static_cast<double>(failed));
}

void record_sched_layer(Outcome& out, const sched::SessionStats& stats,
                        const SourceTrace* source) {
  double busy = 0.0;
  for (const double b : stats.rank_busy_seconds) busy += b;
  const double slaves = static_cast<double>(kRanks - 1);
  out.set("sched.dispatches", static_cast<double>(stats.dispatches));
  out.set("sched.steals", static_cast<double>(stats.steals));
  out.set("sched.worker_busy_share",
          stats.wall_seconds > 0.0 ? busy / (stats.wall_seconds * slaves) : 0.0);
  if (source == nullptr) return;
  std::vector<double> overhead_us;
  for (const double s : source->overhead_seconds) overhead_us.push_back(1e6 * s);
  out.set("sched.overhead_us_p50", percentile(overhead_us, 50.0));
  out.set("sched.overhead_us_p99", percentile(overhead_us, 99.0));
  out.set("mp.payload_bytes_per_job",
          source->payloads == 0 ? 0.0
                                : static_cast<double>(source->payload_bytes) /
                                      static_cast<double>(source->payloads));
}

double lu_factor_solve_ns(std::size_t n) {
  pph::util::Prng rng(0x6c75 + n);
  pph::linalg::CMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal_complex();
  }
  pph::linalg::CVector b(n), x(n);
  for (auto& v : b) v = rng.normal_complex();
  pph::linalg::LU lu;
  pph::linalg::CMatrix work = a;
  double sink = 0.0;
  std::size_t iterations = 0;
  const auto start = Clock::now();
  // At least 2 ms of calls: the per-call figure is a mean over many.
  while (iterations < 64 || seconds_since(start) < 2e-3) {
    for (int k = 0; k < 16; ++k) {
      work.resize(n, n);
      std::copy(a.data(), a.data() + n * n, work.data());
      lu.factor(work);
      lu.solve_into(b, x);
      sink += x[0].real();
    }
    iterations += 16;
  }
  const double ns = 1e9 * seconds_since(start) / static_cast<double>(iterations);
  keep_observable(sink);
  return ns;
}

std::vector<double> pieri_fused_ns_per_level(const pph::schubert::PieriInput& input) {
  namespace sb = pph::schubert;
  const sb::PatternPoset poset(input.problem);
  pph::util::Prng rng(0x66757365);
  std::vector<double> ns;
  double sink = 0.0;
  for (std::size_t level = 1; level < poset.levels(); ++level) {
    const sb::Pattern& pattern = poset.patterns_at_level(level).front();
    const std::vector<sb::PlaneCondition> fixed(input.conditions.begin(),
                                                input.conditions.begin() +
                                                    static_cast<std::ptrdiff_t>(level - 1));
    const sb::PieriEdgeHomotopy h(sb::PatternChart(pattern), fixed,
                                  input.conditions[level - 1], rng.unit_complex(),
                                  0.3 * rng.unit_complex(), 0.3 * rng.unit_complex());
    auto ws = h.make_workspace();
    hom::CVector x(level), hv;
    for (auto& v : x) v = rng.normal_complex();
    hom::CMatrix jx;
    hom::CVector ht;
    std::size_t calls = 0;
    const auto start = Clock::now();
    // A new t every third call, as a corrector revisits one t per step.
    while (calls < 64 || seconds_since(start) < 2e-3) {
      const double t = 0.05 + 0.9 * static_cast<double>((calls / 3) % 97) / 97.0;
      h.evaluate_fused(x, t, ws.get(), hv, jx, ht);
      sink += hv[0].real();
      ++calls;
    }
    ns.push_back(1e9 * seconds_since(start) / static_cast<double>(calls));
  }
  keep_observable(sink);
  return ns;
}

}  // namespace perfbench
