#include "store_synth.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "sched/result_store.hpp"
#include "util/prng.hpp"

namespace perfbench {

using pph::homotopy::PathStatus;
using pph::sched::TrackedPath;

SyntheticStore synthesize_store(std::size_t unique, std::size_t dim, std::uint64_t seed) {
  pph::util::Prng rng(seed ^ 0x73746f7265ULL);
  SyntheticStore out;
  StorePlan& plan = out.plan;
  plan.unique = unique;

  const std::size_t nroots = std::max<std::size_t>(1, unique / 4);
  std::vector<pph::linalg::CVector> roots(nroots);
  for (auto& r : roots) {
    for (std::size_t k = 0; k < dim; ++k) r.emplace_back(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  std::vector<char> root_used(nroots, 0);

  // Job ids are a seeded permutation, so file order is not id order.
  std::vector<std::uint64_t> ids(unique);
  for (std::size_t i = 0; i < unique; ++i) ids[i] = i;
  rng.shuffle(ids);

  const auto random_point = [&](double scale) {
    pph::linalg::CVector x;
    for (std::size_t k = 0; k < dim; ++k) {
      x.emplace_back(rng.uniform(-scale, scale), rng.uniform(-scale, scale));
    }
    return x;
  };

  out.records.reserve(unique + unique / 16);
  for (std::size_t i = 0; i < unique; ++i) {
    TrackedPath tp;
    tp.index = ids[i];
    tp.worker = static_cast<int>(rng.uniform_index(3)) + 1;
    tp.seconds = rng.uniform(1e-4, 5e-2);
    tp.level = static_cast<std::uint32_t>(rng.uniform_index(6));
    tp.result.steps = 50 + rng.uniform_index(400);
    tp.result.rejections = rng.uniform_index(30);
    tp.result.newton_iterations = 100 + rng.uniform_index(2000);
    tp.result.last_step = rng.uniform(1e-6, 0.2);
    const std::uint64_t kind = rng.uniform_index(100);
    if (kind < 70) {
      const std::size_t root = rng.uniform_index(nroots);
      root_used[root] = 1;
      tp.result.status = PathStatus::kConverged;
      tp.result.t_reached = 1.0;
      tp.result.residual = std::pow(10.0, rng.uniform(-15.0, -9.0));
      tp.result.x = roots[root];
      ++plan.converged;
    } else if (kind < 90) {
      tp.result.status = PathStatus::kDiverged;
      tp.result.t_reached = rng.uniform(0.5, 1.0);
      tp.result.residual = std::pow(10.0, rng.uniform(2.0, 8.0));
      tp.result.x = random_point(1e9);
      ++plan.diverged;
    } else {
      tp.result.status = PathStatus::kFailed;
      tp.result.t_reached = rng.uniform(0.0, 1.0);
      tp.result.residual = std::pow(10.0, rng.uniform(-8.0, 0.0));
      tp.result.x = random_point(2.0);
      ++plan.failed;
    }
    plan.steps += tp.result.steps;
    plan.newton_iterations += tp.result.newton_iterations;
    plan.first_ids.push_back(tp.index);
    out.records.push_back(tp);

    // A re-written id: converged onto a fresh point, so a reader that let
    // the later record win would report one root too many.
    if (i > 0 && rng.uniform_index(20) == 0) {
      TrackedPath dup = out.records[rng.uniform_index(out.records.size())];
      dup.result.status = PathStatus::kConverged;
      dup.result.residual = 1e-12;
      dup.result.x = random_point(1.0);
      out.records.push_back(std::move(dup));
      ++plan.duplicate_ids;
    }
  }
  for (const char used : root_used) plan.distinct_roots += used != 0 ? 1 : 0;
  return out;
}

void write_store(const std::string& path, const std::vector<TrackedPath>& records) {
  std::remove(path.c_str());
  pph::store::StoreMeta meta;
  meta.policy = "perfbench";
  meta.ranks = 1;
  pph::sched::JsonlStoreSink sink(path, /*resume=*/false, meta);
  for (const TrackedPath& tp : records) sink.accept(tp);
  sink.finish();
}

StoreVerdict check_store(const pph::store::StoreReader& reader,
                         const pph::store::analytics::StoreSummary& summary,
                         const pph::store::analytics::DedupReport& dedup, const StorePlan& plan,
                         const std::vector<std::size_t>& probes) {
  StoreVerdict v;
  const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got == want) return;
    std::ostringstream os;
    os << what << ": got " << got << ", planted " << want;
    v.mismatches.push_back(os.str());
  };
  expect("reader records", reader.size(), plan.unique);
  expect("reader duplicate ids", reader.duplicates_dropped(), plan.duplicate_ids);
  expect("summary records", summary.records, plan.unique);
  expect("summary converged", summary.converged, plan.converged);
  expect("summary diverged", summary.diverged, plan.diverged);
  expect("summary failed", summary.failed, plan.failed);
  expect("summary steps", summary.steps, plan.steps);
  expect("summary newton iterations", summary.newton_iterations, plan.newton_iterations);
  expect("dedup unique ids", dedup.unique_ids, plan.unique);
  expect("dedup converged", dedup.converged, plan.converged);
  expect("dedup distinct solutions", dedup.distinct_solutions, plan.distinct_roots);
  for (const std::size_t i : probes) {
    if (i >= plan.first_ids.size() || i >= reader.size()) {
      v.mismatches.push_back("probe out of range");
      break;
    }
    expect("record id at probe", reader.record(i).id(), plan.first_ids[i]);
  }
  return v;
}

}  // namespace perfbench
