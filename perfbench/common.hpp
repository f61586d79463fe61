// Shared plumbing of the benchmark program: the raw result record that
// run.py turns into metrics, wall-clock helpers, and the per-workload
// entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One independently set-up world's timed operations.
struct Round {
  double items = 0.0;         ///< work completed
  double wall_s = 0.0;        ///< wall seconds it took
  std::vector<double> op_ms;  ///< per-operation latency samples
};

/// Everything one workload run measured, before any statistics. run.py
/// derives the reported metrics (medians over rounds, tail percentiles,
/// rates) from these raw samples so the statistics live in one tested
/// place.
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few violation messages

  std::vector<Round> rounds;    ///< untraced timed phases
  std::vector<double> setup_s;  ///< one sample per repeated set-up
  std::map<std::string, double> info;         ///< report-only figures
  std::map<std::string, std::string> labels;  ///< report-only strings
  std::map<std::string, double> layers;       ///< per-layer (traced) rows
  double traced_items_per_s = 0.0;

  /// Count one checked operation; record a failure when `ok` is false.
  void check(bool ok, const std::string& what);
};

/// One JSON object on one line.
std::string to_json(const Result& r);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Workload entry points; opt.workload names the workload.
Result run_train(const Options& opt);
Result run_shuffle(const Options& opt);
Result run_plan(const Options& opt);

}  // namespace perfbench
