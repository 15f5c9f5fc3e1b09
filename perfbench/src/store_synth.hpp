#pragma once
// Seeded synthetic path records for the store workload, and the plan the
// generator keeps of what it planted: status tallies, duplicate ids (as a
// resumed run re-writes them) and duplicate endpoints (several paths on
// one root).  The store check compares the program's summaries and dedup
// against this plan, never against a saved copy of an earlier output.

#include <cstdint>
#include <string>
#include <vector>

#include "sched/job_pool.hpp"
#include "store/analytics.hpp"
#include "store/store_reader.hpp"

namespace perfbench {

struct StorePlan {
  std::size_t unique = 0;           // distinct job ids
  std::size_t duplicate_ids = 0;    // later records re-using an earlier id
  std::size_t converged = 0;        // over first occurrences
  std::size_t diverged = 0;
  std::size_t failed = 0;
  std::size_t distinct_roots = 0;   // roots hit by first-occurrence converged records
  std::uint64_t steps = 0;          // summed over first occurrences
  std::uint64_t newton_iterations = 0;
  std::vector<std::uint64_t> first_ids;  // first occurrences, in file order
};

struct SyntheticStore {
  std::vector<pph::sched::TrackedPath> records;  // file order
  StorePlan plan;
};

/// `unique` records with `dim`-dimensional endpoints: ~70% converged onto
/// unique/4 planted roots, ~20% diverged, ~10% failed, plus ~5% duplicate
/// ids carrying a different (first-wins must ignore it) outcome.
SyntheticStore synthesize_store(std::size_t unique, std::size_t dim, std::uint64_t seed);

/// Write every record through the program's JsonlStoreSink.
void write_store(const std::string& path, const std::vector<pph::sched::TrackedPath>& records);

/// Tolerance the dedup query runs at (planted copies are exact).
inline constexpr double kDedupTolerance = 1e-8;

struct StoreVerdict {
  std::vector<std::string> mismatches;
  bool ok() const { return mismatches.empty(); }
};

/// Compare the reader, its summary and its dedup against the plan; `probes`
/// are record positions whose ids are checked against the plan's order.
StoreVerdict check_store(const pph::store::StoreReader& reader,
                         const pph::store::analytics::StoreSummary& summary,
                         const pph::store::analytics::DedupReport& dedup, const StorePlan& plan,
                         const std::vector<std::size_t>& probes);

}  // namespace perfbench
