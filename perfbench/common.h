// Shared plumbing of the repo benchmark: run arguments, the metric tables,
// the result record every workload fills, and small statistics helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 15;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string out_dir = ".";  // trace files and scratch state go here
};

/// One metric of BENCHMARK.json: name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; an untraced run prints all of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Every per-layer metric; a traced run prints all of them (0 where the
/// workload does not exercise the layer — README.md lists which apply).
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run reports. Checks that fail set `correct` to false and print
/// the reason on stdout.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Check(bool ok, const std::string& what);
};

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Prints a "# ..." human-readable line on stdout (the JSON result is always
/// the last line).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
