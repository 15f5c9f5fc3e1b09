#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = pct / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

std::string pass_times(const std::string& label, const std::vector<double>& seconds) {
  std::string line = label + ":";
  char buf[32];
  for (const double s : seconds) {
    std::snprintf(buf, sizeof buf, " %.4f", s);
    line += buf;
  }
  return line + " s";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
