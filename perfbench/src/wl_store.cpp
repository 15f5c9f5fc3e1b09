// store_query: seeded synthetic path records with cyclic-7-sized endpoints
// written through JsonlStoreSink, then reopened with store::StoreReader for
// summarize, random record(i) access and dedup.  No tracking happens here:
// tracker, eval and sched changes should leave this workload unchanged.

#include <filesystem>

#include "store/analytics.hpp"
#include "store_synth.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRecords = 100'000;
constexpr std::size_t kEndpointDim = 7;
constexpr std::size_t kProbes = 20'000;
constexpr std::size_t kProbeBatch = 8;  // accesses timed together
constexpr int kScanThreads = 4;

struct Pass {
  double write_s = 0.0;
  double open_s = 0.0;
  double scan_s = 0.0;
  double dedup_s = 0.0;
  double bytes = 0.0;
  std::vector<double> access_s;  // per access, from batches of kProbeBatch
};

Pass run_pass(Outcome& out, const SyntheticStore& synth, const std::vector<std::size_t>& probes,
              const std::string& path) {
  namespace st = pph::store;
  Pass pass;
  auto start = Clock::now();
  write_store(path, synth.records);
  pass.write_s = seconds_since(start);
  pass.bytes = static_cast<double>(std::filesystem::file_size(path));

  start = Clock::now();
  const st::StoreReader reader(path);
  pass.open_s = seconds_since(start);

  start = Clock::now();
  const auto summary = st::analytics::summarize(reader, kScanThreads);
  pass.scan_s = seconds_since(start);

  double sink = 0.0;
  for (std::size_t b = 0; b + kProbeBatch <= probes.size(); b += kProbeBatch) {
    start = Clock::now();
    for (std::size_t k = b; k < b + kProbeBatch; ++k) sink += reader.record(probes[k]).fields().seconds;
    pass.access_s.push_back(seconds_since(start) / static_cast<double>(kProbeBatch));
  }
  keep_observable(sink);

  start = Clock::now();
  const auto dedup = st::analytics::dedup(reader, kDedupTolerance, kScanThreads);
  pass.dedup_s = seconds_since(start);

  const auto verdict = check_store(reader, summary, dedup, synth.plan, probes);
  out.attempted += synth.records.size();
  for (const auto& m : verdict.mismatches) out.check(false, "store: " + m);
  return pass;
}

}  // namespace

Outcome run_store_query(const Options& opt) {
  Outcome out;
  SetupSampler setup;
  const auto build = [&] { return synthesize_store(kRecords, kEndpointDim, opt.seed); };
  const SyntheticStore synth = setup.keep(build);
  setup.sample(build, 0.0, 2);
  std::vector<std::size_t> probes(kProbes);
  pph::util::Prng rng(opt.seed + 1);
  for (auto& p : probes) p = rng.uniform_index(kRecords);
  const std::string path = (std::filesystem::path(opt.scratch) / "store_query.jsonl").string();

  // Warm-up, discarded: its checks still count, its operations do not.
  run_pass(out, synth, probes, path);
  out.attempted = 0;

  std::vector<double> cycle, write, open, scan, dedup, access_p50, access_p99;
  double bytes = 0.0;
  Window window(opt.seconds, 3);
  while (window.another(cycle)) {
    const Pass pass = run_pass(out, synth, probes, path);
    setup.sample(build, 0.0);
    cycle.push_back(pass.write_s + pass.open_s + pass.scan_s + pass.dedup_s);
    write.push_back(pass.write_s);
    open.push_back(pass.open_s);
    scan.push_back(pass.scan_s);
    dedup.push_back(pass.dedup_s);
    access_p50.push_back(percentile(pass.access_s, 50.0));
    access_p99.push_back(percentile(pass.access_s, 99.0));
    bytes = pass.bytes;
  }
  std::filesystem::remove(path);
  out.note(std::to_string(synth.records.size()) + " records, " +
           std::to_string(synth.plan.duplicate_ids) + " duplicate ids, " +
           std::to_string(synth.plan.distinct_roots) + " planted roots, " +
           std::to_string(bytes / 1048576.0) + " MiB store");

  if (!opt.trace) {
    std::vector<double> reader_side;
    for (std::size_t i = 0; i < cycle.size(); ++i) reader_side.push_back(open[i] + scan[i] + dedup[i]);
    out.set("setup_s", setup.median_seconds());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("solve_s", median(reader_side));
    out.set("items_per_s", static_cast<double>(synth.records.size()) / median(write));
    // Per-pass percentiles, median over passes: a pass that met one of the
    // host's stalls does not move the figure.
    out.set("latency_p50_ms", 1e3 * median(access_p50));
    out.set("latency_p99_ms", 1e3 * median(access_p99));
    return out;
  }
  // The store layer has no decorators: its figures are the same timed
  // public calls, so a traced run costs nothing extra.
  out.set("store.bytes_per_record", bytes / static_cast<double>(synth.records.size()));
  out.set("store.open_ms", 1e3 * median(open));
  out.set("store.random_access_us", 1e6 * median(access_p50));
  out.set("store.scan_ms", 1e3 * median(scan));
  out.set("store.dedup_ms", 1e3 * median(dedup));
  return out;
}

}  // namespace perfbench
