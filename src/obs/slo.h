// Rolling-window SLO attainment and error-budget burn rate (DESIGN.md §16).
//
// An SloEngine watches latency histograms that the serving stack already
// records and answers the SRE questions directly: over the last short/long
// window, what fraction of requests met the latency threshold (attainment),
// and how fast is the error budget burning relative to the objective
// (burn_rate = (1 - attainment) / (1 - objective); 1.0 = burning exactly at
// the sustainable rate, 10x = the monthly budget gone in ~3 days)?
//
// Mechanics: Tick() — called by the admin plane on each /metrics scrape and
// by the metrics-dump loop — snapshots each objective's histogram into a
// (timestamp, good, total) sample ring, where `good` counts records at or
// below the threshold (resolved to histogram bucket bounds, so thresholds
// placed exactly on a bucket bound are exact, not interpolated). Reports
// diff the newest sample against the oldest one inside each window, so the
// engine needs O(window / tick interval) memory and no per-request work.
//
// Results are exported as gauges (widen_slo_<op>_attainment_5m etc.), feed
// /healthz's degraded state, and are scraped back by bench/load_bench into
// BENCH_load.json as the server's own view of the run.

#ifndef WIDEN_OBS_SLO_H_
#define WIDEN_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace widen::obs {

/// One latency SLO: "fraction SloEngine::kObjective of `op` requests
/// complete within `threshold_us`", judged against `hist`'s recorded values.
struct SloObjective {
  std::string op;          // short label, used in gauge names ("embed")
  Histogram* hist = nullptr;
  double threshold_us = 0;
};

/// Attainment/burn-rate over one window for one objective.
struct SloWindowReport {
  int64_t total = 0;        // requests finished inside the window
  double attainment = 1.0;  // good / total (1.0 when total == 0)
  double burn_rate = 0.0;   // (1 - attainment) / (1 - kObjective)
};

struct SloReport {
  std::string op;
  double threshold_us = 0;
  SloWindowReport short_window;
  SloWindowReport long_window;
};

class SloEngine {
 public:
  /// Target good fraction of every objective.
  static constexpr double kObjective = 0.99;
  /// Window lengths. The exported gauge names spell them out (_5m, _1h).
  static constexpr double kShortWindowSeconds = 300;
  static constexpr double kLongWindowSeconds = 3600;
  /// Sample ring bound per objective; at one Tick() per second this holds
  /// comfortably more than the long window.
  static constexpr size_t kMaxSamples = 4096;

  explicit SloEngine(std::vector<SloObjective> objectives);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Samples every objective's histogram now and refreshes the exported
  /// gauges. Call periodically (admin scrape, metrics-dump loop).
  void Tick();
  /// Test seam: like Tick() but at an explicit timestamp (seconds, any
  /// monotone axis). Timestamps must be non-decreasing across calls.
  void TickAt(double now_seconds);

  /// Per-objective attainment/burn over both windows, as of the last Tick.
  std::vector<SloReport> Report() const;

  /// True when any objective's short-window attainment is below its target
  /// — the signal /healthz folds into its degraded state.
  bool Degraded() const;

  /// {"slos": [{"op", "threshold_us", "objective", "short": {...},
  /// "long": {...}}, ...]} for /varz and /healthz bodies.
  std::string DumpJson() const;

 private:
  struct Sample {
    double t = 0;       // seconds
    int64_t good = 0;   // cumulative records <= threshold
    int64_t total = 0;  // cumulative records
  };
  struct Tracked {
    SloObjective objective;
    int threshold_bucket = 0;  // last bucket counted as good
    std::deque<Sample> samples;
    Gauge* attainment_short = nullptr;
    Gauge* burn_short = nullptr;
    Gauge* burn_long = nullptr;
  };

  static SloWindowReport WindowReport(const Tracked& tracked,
                                      double window_seconds);

  mutable std::mutex mu_;
  std::vector<Tracked> tracked_;
};

}  // namespace widen::obs

#endif  // WIDEN_OBS_SLO_H_
