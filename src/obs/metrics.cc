#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "util/file_util.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace widen::obs {

namespace internal_metrics {

std::atomic<bool> g_metrics_enabled{true};

int CurrentShardHint() {
  static std::atomic<int> next_id{0};
  thread_local const int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void AtomicAddDouble(std::atomic<double>* lhs, double rhs) {
  double observed = lhs->load(std::memory_order_relaxed);
  while (!lhs->compare_exchange_weak(observed, observed + rhs,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace internal_metrics

void SetMetricsEnabled(bool enabled) {
  internal_metrics::g_metrics_enabled.store(enabled,
                                            std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Counter

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

int Histogram::BucketIndex(double value) {
  if (!(value > std::exp2(kMinExp))) return 0;  // also catches NaN, <= 0
  // value = 2^e with e > kMinExp; bin index grows kSubBuckets per octave.
  const double e = std::log2(value);
  // ceil without landing exact powers in the next-higher bin: bucket b > 0
  // covers (2^(kMinExp + (b-1)/kSub), 2^(kMinExp + b/kSub)].
  const int b =
      static_cast<int>(std::ceil((e - kMinExp) * kSubBuckets - 1e-9));
  if (b >= kNumBuckets - 1) return kNumBuckets - 1;  // overflow bin
  return b < 1 ? 1 : b;
}

double Histogram::BucketUpperBound(int b) {
  if (b <= 0) return std::exp2(kMinExp);
  if (b >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::exp2(kMinExp + static_cast<double>(b) / kSubBuckets);
}

void Histogram::Record(double value) {
  if (!MetricsEnabled()) return;
  Shard& s =
      shards_[internal_metrics::CurrentShardHint() & (kShards - 1)];
  s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  internal_metrics::AtomicAddDouble(&s.sum, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  for (const Shard& s : shards_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (int b = 0; b < kNumBuckets; ++b) snap.count += snap.buckets[b];
  return snap;
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const int64_t n = TotalCount();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

int64_t Histogram::BucketCount(int b) const {
  WIDEN_CHECK(b >= 0 && b < kNumBuckets) << "bucket out of range: " << b;
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.buckets[b].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Percentile(double p) const {
  const int64_t n = TotalCount();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the sample we want (1-based), then walk cumulative bin counts.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(p * n)));
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t in_bin = BucketCount(b);
    if (in_bin == 0) continue;
    if (seen + in_bin >= rank) {
      const double hi = BucketUpperBound(b);
      if (b == 0) return hi;
      if (b == kNumBuckets - 1) return BucketUpperBound(b - 1);
      const double lo = BucketUpperBound(b - 1);
      // Linear interpolation by rank within the bin.
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(in_bin);
      return lo + (hi - lo) * frac;
    }
    seen += in_bin;
  }
  return BucketUpperBound(kNumBuckets - 2);
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map keeps export output sorted by name; pointers to mapped values
  // are stable because the nodes never move.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Impl* MetricsRegistry::impl() const {
  static Impl* const impl = new Impl();
  return impl;
}

namespace {

// Find-or-create in `own` (`make` builds a new metric; the constructors are
// private to the registry). One registered name must stay one metric kind,
// with one help string, across the process.
template <typename OwnMap, typename OtherMapA, typename OtherMapB,
          typename Make>
auto* FindOrCreate(const std::string& name, const std::string& help,
                   OwnMap& own, const OtherMapA& other_a,
                   const OtherMapB& other_b, Make make) {
  auto it = own.find(name);
  if (it == own.end()) {
    WIDEN_CHECK(other_a.find(name) == other_a.end() &&
                other_b.find(name) == other_b.end())
        << "metric '" << name << "' already registered with a different kind";
    it = own.emplace(name, make()).first;
    return it->second.get();
  }
  const std::string& registered = it->second->help();
  WIDEN_CHECK(help.empty() || registered.empty() || help == registered)
      << "metric '" << name << "' already registered with a different help "
      << "string: '" << registered << "' vs '" << help << "'";
  return it->second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return FindOrCreate(name, help, im->counters, im->gauges, im->histograms,
                      [&] {
                        return std::unique_ptr<Counter>(
                            new Counter(name, help));
                      });
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return FindOrCreate(name, help, im->gauges, im->counters, im->histograms,
                      [&] {
                        return std::unique_ptr<Gauge>(new Gauge(name, help));
                      });
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return FindOrCreate(name, help, im->histograms, im->counters, im->gauges,
                      [&] {
                        return std::unique_ptr<Histogram>(
                            new Histogram(name, help));
                      });
}

namespace {

// %g loses no monitoring-relevant precision and avoids locale surprises.
std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN literals
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::DumpPrometheus() const {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::ostringstream out;
  for (const auto& [name, c] : im->counters) {
    out << "# HELP " << name << " " << c->help() << "\n";
    out << "# TYPE " << name << " counter\n";
    out << name << " " << c->Value() << "\n";
  }
  for (const auto& [name, g] : im->gauges) {
    out << "# HELP " << name << " " << g->help() << "\n";
    out << "# TYPE " << name << " gauge\n";
    out << name << " " << FormatDouble(g->Value()) << "\n";
  }
  for (const auto& [name, h] : im->histograms) {
    out << "# HELP " << name << " " << h->help() << "\n";
    out << "# TYPE " << name << " histogram\n";
    // All series for one histogram come from ONE snapshot: per-bucket reads
    // interleaved with live Record() calls can produce a +Inf bucket smaller
    // than a finite one, which scrapers reject. Buckets are cumulative; only
    // bins that gained counts are emitted (plus +Inf, which is mandatory).
    const Histogram::Snapshot snap = h->TakeSnapshot();
    int64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const int64_t in_bin = snap.buckets[b];
      if (in_bin == 0) continue;
      cumulative += in_bin;
      const double ub = Histogram::BucketUpperBound(b);
      if (std::isinf(ub)) continue;  // folded into +Inf below
      out << name << "_bucket{le=\"" << FormatDouble(ub) << "\"} "
          << cumulative << "\n";
    }
    out << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    out << name << "_sum " << FormatDouble(snap.sum) << "\n";
    out << name << "_count " << snap.count << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::DumpJson() const {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : im->counters) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
        << "\": " << c->Value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : im->gauges) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
        << "\": " << JsonDouble(g->Value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : im->histograms) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {"
        << "\"count\": " << h->TotalCount()
        << ", \"sum\": " << JsonDouble(h->Sum())
        << ", \"mean\": " << JsonDouble(h->Mean())
        << ", \"p50\": " << JsonDouble(h->Percentile(0.50))
        << ", \"p95\": " << JsonDouble(h->Percentile(0.95))
        << ", \"p99\": " << JsonDouble(h->Percentile(0.99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

Status MetricsRegistry::WriteMetrics(const std::string& path) const {
  // Atomic tmp+rename writes: widen_serve re-exports these files every
  // second while scrapers poll them, and a plain truncate-and-write lets a
  // reader catch the file half-written (torn JSON).
  const bool json_only =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json_only) {
    return WriteStringToFileAtomic(path, DumpJson());
  }
  WIDEN_RETURN_IF_ERROR(WriteStringToFileAtomic(path, DumpPrometheus()));
  return WriteStringToFileAtomic(path + ".json", DumpJson());
}

namespace {

// "name{labels} value" or "name value"; returns false on anything else.
bool SplitSampleLine(const std::string& line, std::string* name,
                     std::string* labels, std::string* value) {
  size_t name_end = line.find_first_of("{ ");
  if (name_end == std::string::npos || name_end == 0) return false;
  *name = line.substr(0, name_end);
  size_t value_begin = name_end;
  labels->clear();
  if (line[name_end] == '{') {
    const size_t close = line.find('}', name_end);
    if (close == std::string::npos || close + 1 >= line.size() ||
        line[close + 1] != ' ') {
      return false;
    }
    *labels = line.substr(name_end + 1, close - name_end - 1);
    value_begin = close + 1;
  }
  *value = line.substr(value_begin + 1);
  return !value->empty() && value->find(' ') == std::string::npos;
}

bool ParsePromDouble(const std::string& s, double* out) {
  if (s == "+Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

}  // namespace

Status ValidatePrometheusText(const std::string& text) {
  std::map<std::string, std::string> types;  // metric name -> TYPE
  // Histogram bucket state for the series currently being read.
  std::string bucket_metric;
  double last_le = -std::numeric_limits<double>::infinity();
  double last_cumulative = 0.0;
  bool saw_inf = false;
  double inf_count = 0.0;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto err = [&](const std::string& what) {
    return Status::InvalidArgument(
        StrCat("prometheus text line ", line_no, ": ", what, ": ", line));
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name, rest;
      comment >> hash >> kind >> name;
      if (kind == "TYPE") {
        comment >> rest;
        if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
            rest != "summary" && rest != "untyped") {
          return err("unknown TYPE");
        }
        types[name] = rest;
      }
      continue;
    }
    std::string name, labels, value_text;
    if (!SplitSampleLine(line, &name, &labels, &value_text)) {
      return err("unparseable sample");
    }
    double value = 0.0;
    if (!ParsePromDouble(value_text, &value)) return err("bad value");

    // Resolve the declaring metric: histogram series use _bucket/_sum/_count
    // suffixes on the TYPE'd family name.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::strlen(suffix);
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0) {
        const std::string candidate = name.substr(0, name.size() - len);
        auto it = types.find(candidate);
        if (it != types.end() && it->second == "histogram") {
          family = candidate;
          break;
        }
      }
    }
    auto type_it = types.find(family);
    if (type_it == types.end()) return err("sample without a # TYPE comment");

    const bool is_bucket =
        type_it->second == "histogram" && name == family + "_bucket";
    if (is_bucket) {
      if (labels.compare(0, 4, "le=\"") != 0 || labels.back() != '"') {
        return err("histogram bucket without an le label");
      }
      double le = 0.0;
      if (!ParsePromDouble(labels.substr(4, labels.size() - 5), &le)) {
        return err("bad le bound");
      }
      if (name != bucket_metric) {
        // A new bucket series begins; the previous one is closed below when
        // its _count line arrives.
        bucket_metric = name;
        last_le = -std::numeric_limits<double>::infinity();
        last_cumulative = 0.0;
        saw_inf = false;
      }
      if (le <= last_le) return err("bucket le bounds not increasing");
      if (value < last_cumulative) return err("bucket counts not cumulative");
      last_le = le;
      last_cumulative = value;
      if (std::isinf(le)) {
        saw_inf = true;
        inf_count = value;
      }
    } else if (type_it->second == "histogram" && name == family + "_count") {
      if (bucket_metric == family + "_bucket") {
        if (!saw_inf) return err("histogram without a +Inf bucket");
        if (value != inf_count) {
          return err("histogram _count disagrees with the +Inf bucket");
        }
        bucket_metric.clear();
      } else {
        return err("histogram _count without buckets");
      }
    }
  }
  if (!bucket_metric.empty()) {
    line = bucket_metric;
    return err("histogram ends without _count");
  }
  return Status::OK();
}

void MetricsRegistry::ResetAll() {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  for (auto& [name, c] : im->counters) c->Reset();
  for (auto& [name, g] : im->gauges) g->Reset();
  for (auto& [name, h] : im->histograms) h->Reset();
}

}  // namespace widen::obs
