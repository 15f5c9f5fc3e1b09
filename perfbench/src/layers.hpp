#pragma once
// Per-layer instrumentation for the traced runs, all of it outside src/:
// decorators around the program's public interfaces (a Homotopy and a
// JobSource that time the calls they forward) and standalone calls into
// single kernels.  The untraced runs that produce the end-to-end numbers
// never construct any of these.

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "homotopy/homotopy.hpp"
#include "sched/session.hpp"
#include "schubert/planes.hpp"

namespace perfbench {

namespace hom = pph::homotopy;
namespace sched = pph::sched;

/// Forwards every call to the wrapped homotopy; counts and times the
/// buffer-filling evaluations the tracker's hot loop makes.  Safe to share
/// across slave threads.
class TimedHomotopy final : public hom::Homotopy {
 public:
  explicit TimedHomotopy(const hom::Homotopy& inner) : inner_(inner) {}

  std::size_t dimension() const override { return inner_.dimension(); }
  hom::CVector evaluate(const hom::CVector& x, double t) const override;
  hom::CMatrix jacobian_x(const hom::CVector& x, double t) const override;
  hom::CVector derivative_t(const hom::CVector& x, double t) const override;
  std::pair<hom::CVector, hom::CMatrix> evaluate_with_jacobian(const hom::CVector& x,
                                                               double t) const override;
  std::unique_ptr<hom::HomotopyWorkspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  void evaluate_into(const hom::CVector& x, double t, hom::HomotopyWorkspace* ws,
                     hom::CVector& h) const override;
  void evaluate_with_jacobian_into(const hom::CVector& x, double t, hom::HomotopyWorkspace* ws,
                                   hom::CVector& h, hom::CMatrix& jx) const override;
  void evaluate_fused(const hom::CVector& x, double t, hom::HomotopyWorkspace* ws,
                      hom::CVector& h, hom::CMatrix& jx, hom::CVector& ht) const override;

  std::uint64_t calls() const { return calls_.load(); }
  double seconds() const { return 1e-9 * static_cast<double>(nanos_.load()); }

 private:
  void count(Clock::time_point start) const;

  const hom::Homotopy& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
};

/// What a TimedJobSource observed on the master.
struct SourceTrace {
  std::vector<double> consume_seconds;   // inner consume() per result
  std::vector<double> overhead_seconds;  // pop -> consume minus tracking time
  std::vector<sched::TrackedPath> consumed;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payloads = 0;
};

/// Forwards every call to the wrapped job source; on the master it times
/// consume(), the span from pop(id) to consume(tp), and the payload size
/// of every dispatched job, and keeps every consumed record.
class TimedJobSource final : public sched::JobSource {
 public:
  TimedJobSource(sched::JobSource& inner, SourceTrace& trace) : inner_(inner), trace_(trace) {}

  std::size_t ready() const override { return inner_.ready(); }
  sched::JobId pop() override;
  void requeue(sched::JobId id) override { inner_.requeue(id); }
  std::vector<std::byte> job_payload(sched::JobId id) const override;
  bool consume(sched::TrackedPath& tp) override;
  std::optional<std::size_t> fixed_total() const override { return inner_.fixed_total(); }

  hom::TrackerWorkspace make_workspace() const override { return inner_.make_workspace(); }
  sched::PathResult execute(const std::vector<std::byte>& payload,
                            hom::TrackerWorkspace& ws) const override {
    return inner_.execute(payload, ws);
  }
  sched::PathResult execute(const std::vector<std::byte>& payload, hom::TrackerWorkspace& ws,
                            const sched::ExecContext& exec) const override {
    return inner_.execute(payload, ws, exec);
  }

 private:
  sched::JobSource& inner_;
  SourceTrace& trace_;
  std::unordered_map<sched::JobId, Clock::time_point> popped_;
};

/// homotopy.* metrics from the records of one pass.
void record_homotopy_layer(Outcome& out, const std::vector<sched::TrackedPath>& paths);

/// sched.dispatches/steals/worker_busy_share from a session's stats, and
/// sched.overhead_us_* plus mp.payload_bytes_per_job from the decorator.
void record_sched_layer(Outcome& out, const sched::SessionStats& stats,
                        const SourceTrace* source);

/// Standalone LU::factor + solve_into on a seeded random n x n matrix:
/// nanoseconds per factor-and-solve, the matrix refill included.
double lu_factor_solve_ns(std::size_t n);

/// linalg.lu_ns_n7/n16, and linalg.share_per_newton computed from the
/// kernel times at each record's system size and the measured Newton
/// counts (one factor-and-solve per Newton iteration: a lower bound, the
/// tangent predictor solves too).  `dim_of` maps a record to its size.
template <typename DimOf>
void record_linalg_layer(Outcome& out, const std::vector<sched::TrackedPath>& paths,
                         DimOf dim_of) {
  std::unordered_map<std::size_t, double> ns_at;
  double lu_seconds = 0.0;
  double track_seconds = 0.0;
  for (const auto& tp : paths) {
    const std::size_t n = dim_of(tp);
    auto it = ns_at.find(n);
    if (it == ns_at.end()) it = ns_at.emplace(n, lu_factor_solve_ns(n)).first;
    lu_seconds += 1e-9 * it->second * static_cast<double>(tp.result.newton_iterations);
    track_seconds += tp.seconds;
  }
  out.set("linalg.lu_ns_n7", lu_factor_solve_ns(7));
  out.set("linalg.lu_ns_n16", lu_factor_solve_ns(16));
  out.set("linalg.share_per_newton", track_seconds > 0.0 ? lu_seconds / track_seconds : 0.0);
}

/// Standalone evaluate_fused on Pieri edge homotopies of `input`, one per
/// chart size 1..n: nanoseconds per call at each level (index level-1).
std::vector<double> pieri_fused_ns_per_level(const pph::schubert::PieriInput& input);

}  // namespace perfbench
