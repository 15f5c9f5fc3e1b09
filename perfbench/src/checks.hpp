#pragma once
// Correctness checks computed apart from the program: published root
// counts held as tables here, a determinant and a cyclic-n evaluator of
// the benchmark's own, and endpoint clustering that does not call the
// library's dedup.  The self-tests (selftest.cpp) show each check fails on
// a wrong output.

#include <complex>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/api.hpp"
#include "schubert/map.hpp"

namespace perfbench::checks {

namespace schubert = pph::schubert;
using cplx = std::complex<double>;
using Point = std::vector<cplx>;

/// Published Schubert counts d(m,p,q) (paper Table IV; d(2,2,q) = 2*4^q,
/// d(3,2,q) the Fibonacci numbers F(5(q+1))).  nullopt off the table.
std::optional<std::uint64_t> published_pieri_count(std::size_t m, std::size_t p, std::size_t q);

/// Published number of isolated roots of cyclic-n (n = 5, 6, 7).
std::optional<std::size_t> published_cyclic_roots(std::size_t n);

/// Determinant of a row-major n x n matrix by Gaussian elimination with
/// partial pivoting.
cplx determinant(std::vector<cplx> a, std::size_t n);

/// |det B| over the product of B's column norms (Hadamard's bound), for the
/// bordered matrix B = [X(s) | K] of one intersection condition.
double relative_condition_residual(const schubert::PieriMap& map,
                                   const schubert::PlaneCondition& condition);

struct PieriVerdict {
  std::uint64_t expected = 0;      // from the published table
  std::size_t solutions = 0;
  std::size_t bad_residual = 0;    // solutions failing some condition
  std::size_t duplicate_pairs = 0;
  double worst_residual = 0.0;
  /// Count matches the table, every condition holds, all distinct.
  bool ok() const {
    return expected != 0 && solutions == expected && bad_residual == 0 && duplicate_pairs == 0;
  }
  std::string describe() const;
};

PieriVerdict check_pieri(const schubert::PieriInput& input,
                         const std::vector<schubert::PieriMap>& solutions,
                         double residual_tol = 1e-6, double distinct_tol = 1e-6);

/// Largest relative residual of the cyclic-n equations at x:
/// |f_k(x)| / (sum of |terms| of f_k), f_k the k-th elementary cyclic sum
/// (k = 1..n-1) and f_n = prod x_i - 1.
double cyclic_residual(const Point& x);

/// Number of clusters of points within `tol` (max norm, relative to
/// max(1, norm)): distinct roots among converged endpoints.
std::size_t count_distinct(const std::vector<Point>& points, double tol);

struct RootVerdict {
  std::size_t published = 0;
  std::size_t converged = 0;
  std::size_t not_roots = 0;   // converged endpoints failing the equations
  std::size_t distinct = 0;
  double worst_residual = 0.0;
  /// Every converged endpoint solves the system and no more distinct roots
  /// than published exist: anything else is a wrong output.
  bool valid() const { return not_roots == 0 && distinct <= published; }
  /// The solve found every root exactly once (no shortfall, no two paths
  /// on one root).
  bool complete() const { return distinct == published && converged == distinct; }
  std::string describe() const;
};

RootVerdict check_cyclic_roots(std::size_t n, const std::vector<Point>& converged_endpoints,
                               double residual_tol = 1e-8, double distinct_tol = 1e-6);

/// Request accounting of one serve() run: every request reached exactly
/// one terminal bucket, and every completed request id reached the sink
/// exactly once.
bool requests_accounted(const pph::sched::ServiceStats& stats, std::size_t requests,
                        const std::vector<std::size_t>& completed_ids);

}  // namespace perfbench::checks
