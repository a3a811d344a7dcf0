// Low-overhead, thread-safe process metrics (DESIGN.md §11).
//
// A process-wide MetricsRegistry owns named Counters, Gauges, and Histograms
// with stable addresses: instrumentation sites look a metric up once (the
// WIDEN_METRIC_* macros cache the pointer in a function-local static) and
// then update it lock-free. Counters and histogram bins are sharded,
// cache-line-padded relaxed atomics, so concurrent hot-path increments never
// contend on one line; reads sum the shards.
//
// Histograms use fixed log-spaced bins (kSubBuckets per power of two), so a
// recorded value lands in its bin with one log2 and one fetch_add, and
// p50/p95/p99 are computed exactly from the bin counts (resolution: one bin,
// a relative width of 2^(1/kSubBuckets) - 1 ≈ 4.4%).
//
// The whole registry can be exported as Prometheus text format or JSON
// (DumpPrometheus / DumpJson / WriteMetrics), and disabled process-wide with
// SetMetricsEnabled(false) — the disabled hot path is one relaxed load, which
// is what bench/obs_bench prices against the enabled path (<2% budget).
//
// Naming convention (enforced by review, not code): all metrics are
// `widen_<subsystem>_<what>` with unit suffixes `_total` (monotonic counts),
// `_us` (microsecond histograms), `_seconds`, `_bytes`, `_nodes`.

#ifndef WIDEN_OBS_METRICS_H_
#define WIDEN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace widen::obs {

namespace internal_metrics {

extern std::atomic<bool> g_metrics_enabled;  // default: true

/// Small dense id of the calling thread, assigned on first use; shards are
/// picked from it so threads spread across shards deterministically.
int CurrentShardHint();

/// lhs += rhs for atomic<double> without C++20 atomic float fetch_add
/// (portable CAS loop, relaxed).
void AtomicAddDouble(std::atomic<double>* lhs, double rhs);

}  // namespace internal_metrics

/// True when metric updates are being recorded (the default).
inline bool MetricsEnabled() {
  return internal_metrics::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Process-wide kill switch. With metrics disabled every update is one
/// relaxed load + branch; values freeze at their current state.
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing integer metric. Add() is lock-free and sharded.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[internal_metrics::CurrentShardHint() & (kShards - 1)]
        .value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards. Monitoring-grade: concurrent writers may or may not be
  /// included, but every completed Add from a joined thread is.
  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset();

  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  Shard shards_[kShards];
  std::string name_;
  std::string help_;
};

/// Last-write-wins floating point metric (queue depths, losses, norms).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    internal_metrics::AtomicAddDouble(&value_, delta);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
  std::string name_;
  std::string help_;
};

/// Log-binned distribution of non-negative values. Record() is lock-free;
/// Percentile() interpolates inside the containing bin, so its error is
/// bounded by the bin width (≈4.4% relative at kSubBuckets = 16).
class Histogram {
 public:
  /// Bins per power of two. 16 keeps any percentile within ~4.4% of exact.
  static constexpr int kSubBuckets = 16;
  /// Bin 0 catches everything <= 2^kMinExp (including <= 0).
  static constexpr int kMinExp = -10;
  /// Octaves covered before the overflow bin: values up to 2^(kMinExp+44),
  /// ~4.8 hours when recording microseconds.
  static constexpr int kOctaves = 44;
  static constexpr int kNumBuckets = 2 + kOctaves * kSubBuckets;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  /// One self-consistent view of the distribution, read shard-by-shard in a
  /// single pass. `count` is defined as the sum of `buckets`, so cumulative
  /// bucket totals derived from a snapshot are monotone and end exactly at
  /// `count` — the invariant Prometheus exposition requires — even while
  /// writers keep recording. (Reading BucketCount/TotalCount separately has
  /// no such guarantee: a Record() between the two passes can make +Inf
  /// smaller than the last finite bucket.)
  struct Snapshot {
    int64_t buckets[kNumBuckets] = {};
    int64_t count = 0;  // sum of buckets, by construction
    double sum = 0.0;
  };
  Snapshot TakeSnapshot() const;

  int64_t TotalCount() const;
  double Sum() const;
  double Mean() const;
  /// Value below which fraction `p` (in [0, 1]) of recorded samples fall,
  /// interpolated within the containing bin. 0 when empty.
  double Percentile(double p) const;
  /// Count in bin `b` summed over shards (export + tests).
  int64_t BucketCount(int b) const;
  /// Inclusive upper bound of bin `b` (+inf for the overflow bin).
  static double BucketUpperBound(int b);
  /// The bin a value lands in (exposed for the tests' serial reference).
  static int BucketIndex(double value);

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset();

  static constexpr int kShards = 4;
  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kNumBuckets] = {};
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  Shard shards_[kShards];
  std::string name_;
  std::string help_;
};

/// Process-wide registry. Lookups lock a mutex; the returned pointers are
/// stable for the process lifetime, so hot paths resolve a metric once.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Registering one name as two different metric
  /// kinds, or with two different non-empty help strings, is a programming
  /// error and aborts. An empty `help` is a plain lookup: it matches
  /// whatever help the metric was registered with.
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help);

  /// Prometheus text exposition format (counters, gauges, and histograms
  /// with cumulative non-empty buckets), names sorted.
  std::string DumpPrometheus() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// mean, p50, p95, p99}}}, names sorted.
  std::string DumpJson() const;

  /// Writes metrics to `path`: JSON when the path ends in ".json", else
  /// Prometheus text at `path` AND JSON next to it at `path + ".json"`.
  Status WriteMetrics(const std::string& path) const;

  /// Zeroes every registered metric (tests and benches); addresses survive.
  void ResetAll();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl* impl() const;
};

/// Structural validation of Prometheus text exposition format, used by the
/// admin-plane tests and the CI scrape check (tools/adminctl --check-prom):
/// every sample line must parse as `name[{labels}] value`, every series must
/// be preceded by a # TYPE comment, histogram buckets must be cumulative
/// (non-decreasing in `le` order) and end in a +Inf bucket equal to
/// `<name>_count`. Returns the first violation as InvalidArgument.
Status ValidatePrometheusText(const std::string& text);

}  // namespace widen::obs

// Resolve-once accessors for instrumentation sites: the registry lookup runs
// on first execution, later passes pay one guard-variable load.
#define WIDEN_METRIC_COUNTER(var, metric_name, metric_help)          \
  static ::widen::obs::Counter* const var =                          \
      ::widen::obs::MetricsRegistry::Get().GetCounter(metric_name,   \
                                                      metric_help)
#define WIDEN_METRIC_GAUGE(var, metric_name, metric_help)            \
  static ::widen::obs::Gauge* const var =                            \
      ::widen::obs::MetricsRegistry::Get().GetGauge(metric_name,     \
                                                    metric_help)
#define WIDEN_METRIC_HISTOGRAM(var, metric_name, metric_help)        \
  static ::widen::obs::Histogram* const var =                        \
      ::widen::obs::MetricsRegistry::Get().GetHistogram(metric_name, \
                                                        metric_help)

#endif  // WIDEN_OBS_METRICS_H_
