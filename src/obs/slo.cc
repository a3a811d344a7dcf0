#include "obs/slo.h"

#include <algorithm>
#include <sstream>

#include "obs/stage.h"
#include "util/logging.h"

namespace widen::obs {

namespace {

double NowSeconds() { return static_cast<double>(MonotonicNanos()) / 1e9; }

// Largest bucket whose inclusive upper bound is <= threshold: counting
// records as "good" up to this bucket makes a threshold placed exactly on a
// bucket bound exact, and otherwise rounds the threshold *down* to the next
// bound (strict — a value the histogram can't distinguish from a violation
// is counted as one).
int ThresholdBucket(double threshold_us) {
  int bucket = -1;
  for (int b = 0; b < Histogram::kNumBuckets - 1; ++b) {
    if (Histogram::BucketUpperBound(b) <= threshold_us) bucket = b;
  }
  return bucket;
}

}  // namespace

SloEngine::SloEngine(std::vector<SloObjective> objectives) {
  WIDEN_CHECK(!objectives.empty()) << "SloEngine with no objectives";
  auto& registry = MetricsRegistry::Get();
  for (const SloObjective& objective : objectives) {
    WIDEN_CHECK(objective.hist != nullptr)
        << "SLO objective '" << objective.op << "' has no histogram";
    Tracked tracked;
    tracked.objective = objective;
    tracked.threshold_bucket = ThresholdBucket(objective.threshold_us);
    tracked.attainment_short = registry.GetGauge(
        "widen_slo_" + objective.op + "_attainment_5m",
        "Short-window fraction of requests meeting the latency SLO");
    tracked.burn_short = registry.GetGauge(
        "widen_slo_" + objective.op + "_burn_rate_5m",
        "Short-window error-budget burn rate (1.0 = sustainable)");
    tracked.burn_long = registry.GetGauge(
        "widen_slo_" + objective.op + "_burn_rate_1h",
        "Long-window error-budget burn rate (1.0 = sustainable)");
    tracked_.push_back(std::move(tracked));
  }
}

void SloEngine::Tick() { TickAt(NowSeconds()); }

void SloEngine::TickAt(double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Tracked& tracked : tracked_) {
    const Histogram::Snapshot snap = tracked.objective.hist->TakeSnapshot();
    Sample sample;
    sample.t = now_seconds;
    sample.total = snap.count;
    for (int b = 0; b <= tracked.threshold_bucket; ++b) {
      sample.good += snap.buckets[b];
    }
    tracked.samples.push_back(sample);
    // Keep one sample older than the long window so diffs can span it.
    while (tracked.samples.size() > kMaxSamples ||
           (tracked.samples.size() > 2 &&
            now_seconds - tracked.samples[1].t > kLongWindowSeconds)) {
      tracked.samples.pop_front();
    }
    const SloWindowReport short_report =
        WindowReport(tracked, kShortWindowSeconds);
    const SloWindowReport long_report =
        WindowReport(tracked, kLongWindowSeconds);
    tracked.attainment_short->Set(short_report.attainment);
    tracked.burn_short->Set(short_report.burn_rate);
    tracked.burn_long->Set(long_report.burn_rate);
  }
}

SloWindowReport SloEngine::WindowReport(const Tracked& tracked,
                                        double window_seconds) {
  SloWindowReport report;
  if (tracked.samples.empty()) return report;
  const Sample& newest = tracked.samples.back();
  // Oldest sample still inside the window: requests finished between it and
  // now are exactly the window's traffic (cumulative counters never reset).
  const Sample* base = &tracked.samples.front();
  for (const Sample& s : tracked.samples) {
    if (newest.t - s.t <= window_seconds) {
      base = &s;
      break;
    }
  }
  report.total = newest.total - base->total;
  const int64_t good = newest.good - base->good;
  report.attainment =
      report.total > 0
          ? static_cast<double>(good) / static_cast<double>(report.total)
          : 1.0;
  report.burn_rate = (1.0 - report.attainment) / (1.0 - kObjective);
  return report;
}

std::vector<SloReport> SloEngine::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloReport> reports;
  for (const Tracked& tracked : tracked_) {
    SloReport report;
    report.op = tracked.objective.op;
    report.threshold_us = tracked.objective.threshold_us;
    report.short_window = WindowReport(tracked, kShortWindowSeconds);
    report.long_window = WindowReport(tracked, kLongWindowSeconds);
    reports.push_back(std::move(report));
  }
  return reports;
}

bool SloEngine::Degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Tracked& tracked : tracked_) {
    const SloWindowReport report = WindowReport(tracked, kShortWindowSeconds);
    if (report.total > 0 && report.attainment < kObjective) {
      return true;
    }
  }
  return false;
}

std::string SloEngine::DumpJson() const {
  const std::vector<SloReport> reports = Report();
  std::ostringstream out;
  out << "{\"slos\": [";
  for (size_t i = 0; i < reports.size(); ++i) {
    const SloReport& r = reports[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"op\": \"" << r.op
        << "\", \"threshold_us\": " << r.threshold_us << ", \"objective\": "
        << kObjective << ", \"short\": {\"total\": " << r.short_window.total
        << ", \"attainment\": " << r.short_window.attainment
        << ", \"burn_rate\": " << r.short_window.burn_rate
        << "}, \"long\": {\"total\": " << r.long_window.total
        << ", \"attainment\": " << r.long_window.attainment
        << ", \"burn_rate\": " << r.long_window.burn_rate << "}}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace widen::obs
