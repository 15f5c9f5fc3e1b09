#pragma once
// Shared plumbing of the benchmark binary: options, the outcome every
// workload reports, timing and percentile helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Ranks of every session: rank 0 is the master, ranks 1-3 track.
inline constexpr int kRanks = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the store workload writes its files into.
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one workload run hands back to main: operation accounting, the
/// verdict of the independent checks, and the metrics by name.  Units live
/// in the metric tables of main.cpp.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed checks, printed to stderr
  std::vector<std::string> notes;     // human-readable context, stderr

  void set(const std::string& name, double value) { metrics.push_back({name, value}); }
  void check(bool ok, const std::string& what);
  /// A line repeating the previous one (every pass of a run checks the
  /// same way) is logged once.
  void note(const std::string& line) {
    if (notes.empty() || notes.back() != line) notes.push_back(line);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation percentile (pct in [0, 100]); 0 for no samples.
double percentile(std::vector<double> xs, double pct);
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

/// "label: 1.234 1.301 ... s" for the stderr log.
std::string pass_times(const std::string& label, const std::vector<double>& seconds);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Set-up timing sampled across the whole run: the host runs in slow and
/// fast phases lasting seconds, so set-up is rebuilt (and thrown away) a
/// little after every pass, and setup_s is the median over all of them.
class SetupSampler {
 public:
  /// Build the inputs the run keeps, timed like every later sample.
  template <typename Build>
  auto keep(Build&& build) {
    const auto start = Clock::now();
    auto built = build();
    times_.push_back(seconds_since(start));
    return built;
  }
  /// Rebuild at least `min_reps` times and for at least `seconds`,
  /// discarding the results (their destruction is not timed).
  template <typename Build>
  void sample(Build&& build, double seconds, std::size_t min_reps = 1) {
    const auto begin = Clock::now();
    for (std::size_t r = 0; r < min_reps || seconds_since(begin) < seconds; ++r) {
      const auto start = Clock::now();
      const auto built = build();
      times_.push_back(seconds_since(start));
    }
  }
  double median_seconds() const { return median(times_); }

 private:
  std::vector<double> times_;
};

/// Measurement window: passes run while the elapsed time plus the median
/// pass time so far fits in the window, with at least `min_passes`.
class Window {
 public:
  Window(double seconds, std::size_t min_passes)
      : seconds_(seconds), min_passes_(min_passes), start_(Clock::now()) {}
  bool another(const std::vector<double>& pass_seconds) const {
    if (pass_seconds.size() < min_passes_) return true;
    return seconds_since(start_) + median(pass_seconds) <= seconds_;
  }

 private:
  double seconds_;
  std::size_t min_passes_;
  Clock::time_point start_;
};

/// Stores a kernel's result where the optimizer cannot drop the work.
inline void keep_observable(double v) {
  static volatile double sink = 0.0;
  sink = sink + v;
}

/// Percent slower the traced passes were than the untraced ones.
inline double overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& untraced) {
  return 100.0 * (median(traced) / median(untraced) - 1.0);
}

}  // namespace perfbench
