#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

uint64_t SpanLog::Add(const std::string& name, uint64_t parent,
                      Clock::time_point start, Clock::time_point end) {
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, id, parent, Ns(start), std::max(Ns(start), Ns(end))});
  return id;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, SpanLog::Summary> SpanLog::Summarize() const {
  // Children intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, Summary> out;
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans_) {
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cursor = s.start_ns;
      for (auto [begin, end] : iv) {
        begin = std::max(begin, cursor);
        end = std::min(end, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_us += static_cast<double>(duration) / 1e3;
    sum.self_us += static_cast<double>(duration - covered) / 1e3;
    durations[s.name].push_back(static_cast<double>(duration) / 1e3);
  }
  for (auto& [name, values] : durations) {
    out[name].p50_us = Percentile(values, 0.50);
    out[name].p99_us = Percentile(values, 0.99);
  }
  return out;
}

widen::Status SpanLog::WriteJson(const std::string& path,
                                 size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return widen::Status::IOError("cannot write " + path);
  std::fputs("{\"summary\": {", f);
  bool first = true;
  for (const auto& [name, s] : Summarize()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_us\": %.3f, "
                 "\"self_us\": %.3f, \"p50_us\": %.3f, \"p99_us\": %.3f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(s.count), s.total_us, s.self_us,
                 s.p50_us, s.p99_us);
    first = false;
  }
  std::fputs("\n},\n\"spans\": [", f);
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? widen::Status::OK()
                             : widen::Status::IOError("cannot write " + path);
}

}  // namespace perfbench
