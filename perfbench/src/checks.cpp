#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace perfbench::checks {

std::optional<std::uint64_t> published_pieri_count(std::size_t m, std::size_t p,
                                                   std::size_t q) {
  struct Row {
    std::size_t m, p, q;
    std::uint64_t count;
  };
  static constexpr Row kTable[] = {
      {2, 2, 0, 2},   {2, 2, 1, 8},   {2, 2, 2, 32},  {2, 2, 3, 128}, {2, 2, 4, 512},
      {3, 2, 0, 5},   {3, 2, 1, 55},  {3, 2, 2, 610}, {2, 3, 0, 5},   {2, 3, 1, 55},
      {2, 3, 2, 610}, {4, 3, 1, 135660},
  };
  for (const Row& r : kTable) {
    if (r.m == m && r.p == p && r.q == q) return r.count;
  }
  return std::nullopt;
}

std::optional<std::size_t> published_cyclic_roots(std::size_t n) {
  switch (n) {
    case 5: return 70;
    case 6: return 156;
    case 7: return 924;
    default: return std::nullopt;
  }
}

cplx determinant(std::vector<cplx> a, std::size_t n) {
  cplx det{1.0, 0.0};
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(a[r * n + k]) > std::abs(a[piv * n + k])) piv = r;
    }
    if (a[piv * n + k] == cplx{}) return cplx{};
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[k * n + c], a[piv * n + c]);
      det = -det;
    }
    const cplx pivot = a[k * n + k];
    det *= pivot;
    for (std::size_t r = k + 1; r < n; ++r) {
      const cplx f = a[r * n + k] / pivot;
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return det;
}

double relative_condition_residual(const schubert::PieriMap& map,
                                   const schubert::PlaneCondition& condition) {
  const auto& pb = map.problem();
  const std::size_t dim = pb.m + pb.p;
  // X(s) = sum_d C_d s^d by Horner over the coefficient matrices.
  std::vector<cplx> x(dim * pb.p, cplx{});
  for (std::size_t d = pb.q + 1; d-- > 0;) {
    const auto c = map.coefficient(d);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t j = 0; j < pb.p; ++j) {
        x[r * pb.p + j] = x[r * pb.p + j] * condition.point + c(r, j);
      }
    }
  }
  std::vector<cplx> b(dim * dim);
  std::vector<double> col_norm2(dim, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const cplx v = c < pb.p ? x[r * pb.p + c] : condition.plane(r, c - pb.p);
      b[r * dim + c] = v;
      col_norm2[c] += std::norm(v);
    }
  }
  double hadamard = 1.0;
  for (const double n2 : col_norm2) hadamard *= std::sqrt(n2);
  if (hadamard == 0.0) return 0.0;
  return std::abs(determinant(std::move(b), dim)) / hadamard;
}

namespace {

double inf_norm(const Point& p) {
  double m = 0.0;
  for (const cplx& v : p) m = std::max(m, std::abs(v));
  return m;
}

bool same_point(const Point& a, const Point& b, double tol) {
  if (a.size() != b.size()) return false;
  const double scale = std::max({1.0, inf_norm(a), inf_norm(b)});
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::abs(a[k] - b[k]) > tol * scale) return false;
  }
  return true;
}

/// Pairs of points within `tol` of each other (max norm, relative to
/// max(1, their norms)).
std::size_t duplicate_pairs(const std::vector<Point>& points, double tol) {
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (same_point(points[i], points[j], tol)) ++pairs;
    }
  }
  return pairs;
}

}  // namespace

std::string PieriVerdict::describe() const {
  std::ostringstream os;
  os << solutions << " solutions (published " << expected << "), " << bad_residual
     << " failing a condition (worst relative det " << worst_residual << "), "
     << duplicate_pairs << " coincident pairs";
  return os.str();
}

PieriVerdict check_pieri(const schubert::PieriInput& input,
                         const std::vector<schubert::PieriMap>& solutions, double residual_tol,
                         double distinct_tol) {
  PieriVerdict v;
  const auto& pb = input.problem;
  v.expected = published_pieri_count(pb.m, pb.p, pb.q).value_or(0);
  v.solutions = solutions.size();
  std::vector<Point> coords;
  coords.reserve(solutions.size());
  for (const auto& sol : solutions) {
    double worst = 0.0;
    for (const auto& cond : input.conditions) {
      worst = std::max(worst, relative_condition_residual(sol, cond));
    }
    // NaN fails the comparison and is counted as bad.
    if (!(worst <= residual_tol)) ++v.bad_residual;
    v.worst_residual = std::max(v.worst_residual, std::isnan(worst) ? HUGE_VAL : worst);
    coords.push_back(sol.coords());
  }
  v.duplicate_pairs = duplicate_pairs(coords, distinct_tol);
  return v;
}

double cyclic_residual(const Point& x) {
  const std::size_t n = x.size();
  double worst = 0.0;
  for (std::size_t k = 1; k < n; ++k) {
    cplx sum{};
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cplx term{1.0, 0.0};
      for (std::size_t j = 0; j < k; ++j) term *= x[(i + j) % n];
      sum += term;
      scale += std::abs(term);
    }
    worst = std::max(worst, std::abs(sum) / std::max(scale, 1.0));
  }
  cplx prod{1.0, 0.0};
  for (const cplx& v : x) prod *= v;
  worst = std::max(worst, std::abs(prod - 1.0) / std::max(std::abs(prod), 1.0));
  return std::isnan(worst) ? HUGE_VAL : worst;
}

std::size_t count_distinct(const std::vector<Point>& points, double tol) {
  // Sweep in order of the first coordinate's real part: two points within
  // tol * scale of each other have keys within that distance too, so only
  // representatives inside the key window need the full comparison.
  double max_scale = 1.0;
  for (const Point& p : points) max_scale = std::max(max_scale, inf_norm(p));
  const double window = tol * max_scale;
  const auto key = [&](std::size_t i) { return points[i].empty() ? 0.0 : points[i][0].real(); };
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  std::vector<std::size_t> reps;
  for (const std::size_t i : order) {
    bool seen = false;
    for (auto it = reps.rbegin(); it != reps.rend() && key(*it) >= key(i) - window; ++it) {
      if (same_point(points[*it], points[i], tol)) {
        seen = true;
        break;
      }
    }
    if (!seen) reps.push_back(i);
  }
  return reps.size();
}

std::string RootVerdict::describe() const {
  std::ostringstream os;
  os << converged << " converged, " << distinct << " distinct roots (published " << published
     << "), " << not_roots << " endpoints failing the equations (worst " << worst_residual
     << ")";
  return os.str();
}

RootVerdict check_cyclic_roots(std::size_t n, const std::vector<Point>& converged_endpoints,
                               double residual_tol, double distinct_tol) {
  RootVerdict v;
  v.published = published_cyclic_roots(n).value_or(0);
  v.converged = converged_endpoints.size();
  for (const Point& x : converged_endpoints) {
    const double r = x.size() == n ? cyclic_residual(x) : HUGE_VAL;
    v.worst_residual = std::max(v.worst_residual, r);
    if (!(r <= residual_tol)) ++v.not_roots;
  }
  v.distinct = count_distinct(converged_endpoints, distinct_tol);
  return v;
}

bool requests_accounted(const pph::sched::ServiceStats& stats, std::size_t requests,
                        const std::vector<std::size_t>& completed_ids) {
  if (stats.terminal_requests() != requests) return false;
  if (stats.completed != completed_ids.size()) return false;
  std::vector<char> seen(requests, 0);
  for (const std::size_t id : completed_ids) {
    if (id >= requests || seen[id] != 0) return false;
    seen[id] = 1;
  }
  return true;
}

}  // namespace perfbench::checks
