#pragma once
// The four workloads.  Each returns every end-to-end metric in an untraced
// run (opt.trace false) and the per-layer metrics it can measure in a
// traced one; main.cpp fills the layer metrics a workload does not
// exercise with 0.

#include <vector>

#include "common.hpp"
#include "sched/job_pool.hpp"

namespace perfbench {

Outcome run_pieri_tree(const Options& opt);
Outcome run_cyclic_drain(const Options& opt);
Outcome run_serve_poisson(const Options& opt);
Outcome run_store_query(const Options& opt);

/// Account one pass over a total-degree cyclic-n start list: every path is
/// an operation (kFailed or missing counts as failed) and so is the root
/// count (a shortfall or two paths on one root counts as one failed solve).
/// Endpoints that do not solve the system, more roots than published, or a
/// path reported twice make the run incorrect.
void account_cyclic_pass(Outcome& out, std::size_t n, std::size_t paths,
                         const std::vector<pph::sched::TrackedPath>& results);

}  // namespace perfbench
