// Self-tests of the benchmark's correctness checks: each check passes on a
// right output and fails when the output is made wrong -- a perturbed Pieri
// solution, a dropped or duplicated cyclic root, an unplanted duplicate
// store record, a request missing from the serve accounting.
//
//   pphbench_selftest [scratch-dir]      (run.py --self-test runs it)

#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.hpp"
#include "homotopy/start_total_degree.hpp"
#include "homotopy/tracker.hpp"
#include "sched/pieri_scheduler.hpp"
#include "sched/result_store.hpp"
#include "store_synth.hpp"
#include "systems/cyclic.hpp"
#include "util/prng.hpp"

namespace {

using namespace perfbench;
namespace sb = pph::schubert;

int g_failures = 0;

void expect(bool ok, const char* test, const char* what) {
  std::printf("%s  %s: %s\n", ok ? "ok  " : "FAIL", test, what);
  if (!ok) ++g_failures;
}

void test_determinant() {
  const char* t = "determinant";
  using checks::cplx;
  expect(checks::determinant({1, 2, 3, 4}, 2) == cplx(-2.0, 0.0), t, "2x2 value");
  expect(checks::determinant({0, 1, 0, 0, 0, 1, 1, 0, 0}, 3) == cplx(1.0, 0.0), t,
         "cyclic permutation has sign +1");
  expect(checks::determinant({0, 1, 1, 0}, 2) == cplx(-1.0, 0.0), t, "transposition has sign -1");
  expect(checks::determinant({1, 2, 2, 4}, 2) == cplx(0.0, 0.0), t, "singular matrix");
}

void test_pieri_check() {
  const char* t = "pieri";
  pph::util::Prng rng(5);
  const auto input = sb::random_pieri_input(sb::PieriProblem{2, 2, 1}, rng);
  const auto report = pph::sched::run_pieri(input, 2);
  const auto& sols = report.solutions;
  expect(checks::check_pieri(input, sols).ok(), t, "a complete (2,2,1) solve passes");
  if (sols.size() < 2) return;

  auto perturbed = sols;
  auto coords = sols[0].coords();
  coords[0] += checks::cplx(1e-4, 0.0);
  perturbed[0] = sb::PieriMap(sols[0].chart(), coords);
  const auto v1 = checks::check_pieri(input, perturbed);
  expect(!v1.ok() && v1.bad_residual == 1, t, "a perturbed solution fails its conditions");

  auto dropped = sols;
  dropped.pop_back();
  expect(!checks::check_pieri(input, dropped).ok(), t, "a dropped solution fails the count");

  auto doubled = sols;
  doubled.back() = sols.front();
  const auto v2 = checks::check_pieri(input, doubled);
  expect(!v2.ok() && v2.duplicate_pairs == 1, t, "a repeated solution fails distinctness");
}

void test_cyclic_check() {
  const char* t = "cyclic";
  pph::util::Prng rng(3);
  const auto target = pph::systems::cyclic(5);
  const pph::homotopy::TotalDegreeStart start(target, rng);
  const pph::homotopy::ConvexHomotopy h(start.system(), target, rng.unit_complex());
  std::vector<checks::Point> roots;
  for (const auto& r : pph::homotopy::track_all(h, start.all_solutions())) {
    if (r.converged()) roots.push_back(r.x);
  }
  const auto v = checks::check_cyclic_roots(5, roots);
  expect(v.valid() && v.complete(), t, "the cyclic-5 roots pass (70 distinct)");

  auto dropped = roots;
  dropped.pop_back();
  const auto vd = checks::check_cyclic_roots(5, dropped);
  expect(vd.valid() && !vd.complete(), t, "a dropped root is a shortfall");

  auto doubled = roots;
  doubled.push_back(roots.front());
  const auto vdup = checks::check_cyclic_roots(5, doubled);
  expect(vdup.valid() && !vdup.complete(), t, "two paths on one root are caught");

  auto wrong = roots;
  wrong.front()[0] *= 1.001;
  expect(!checks::check_cyclic_roots(5, wrong).valid(), t, "a point off the variety is invalid");

  auto extra = roots;
  extra.push_back(checks::Point(5, checks::cplx(0.3, 0.1)));
  expect(!checks::check_cyclic_roots(5, extra).valid(), t, "a spurious endpoint is invalid");
}

StoreVerdict read_and_check(const std::string& path, const SyntheticStore& synth) {
  const pph::store::StoreReader reader(path);
  const auto summary = pph::store::analytics::summarize(reader, 2);
  const auto dedup = pph::store::analytics::dedup(reader, kDedupTolerance, 2);
  return check_store(reader, summary, dedup, synth.plan, {0, 1, synth.plan.unique - 1});
}

void test_store_check(const std::string& dir) {
  const char* t = "store";
  const std::string path = (std::filesystem::path(dir) / "selftest_store.jsonl").string();
  const auto synth = synthesize_store(2000, 7, 11);
  expect(synth.plan.duplicate_ids > 0 && synth.plan.distinct_roots < synth.plan.converged, t,
         "the generator plants duplicate ids and shared roots");
  write_store(path, synth.records);
  expect(read_and_check(path, synth).ok(), t, "the planted store passes");

  auto extra_id = synth.records;
  extra_id.push_back(synth.records[7]);
  write_store(path, extra_id);
  expect(!read_and_check(path, synth).ok(), t, "an unplanted duplicate id fails");

  auto extra_root = synth.records;
  for (auto& tp : extra_root) {
    if (tp.result.status == pph::homotopy::PathStatus::kDiverged) {
      tp.result.status = pph::homotopy::PathStatus::kConverged;
      tp.result.x.assign(7, checks::cplx(0.25, -0.5));
      break;
    }
  }
  write_store(path, extra_root);
  expect(!read_and_check(path, synth).ok(), t, "an unplanted root fails");
  std::filesystem::remove(path);
}

void test_serve_accounting() {
  const char* t = "serve";
  pph::sched::ServiceStats s;
  s.arrivals = s.admitted = s.completed = 4;
  expect(checks::requests_accounted(s, 4, {0, 1, 2, 3}), t, "a drained service passes");
  expect(!checks::requests_accounted(s, 5, {0, 1, 2, 3}), t,
         "a request missing from every bucket fails");
  expect(!checks::requests_accounted(s, 4, {0, 1, 2}), t, "a result missing from the sink fails");
  expect(!checks::requests_accounted(s, 4, {0, 1, 1, 3}), t, "a result delivered twice fails");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  test_determinant();
  test_pieri_check();
  test_cyclic_check();
  test_store_check(dir);
  test_serve_accounting();
  std::printf("%s (%d failing)\n", g_failures == 0 ? "all checks ok" : "CHECK TESTS FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
