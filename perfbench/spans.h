// In-memory spans of a traced run.
//
// A span is one call into a layer's public entry point (or one client
// request): name, start, end and the span that caused it. Spans stay in
// memory while the run measures and are written out when it ends. A span's
// self time is its duration minus the part of its interval that its child
// spans cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"

namespace perfbench {

class SpanLog {
 public:
  /// Records a span and returns its id (ids start at 1; parent 0 = root).
  uint64_t Add(const std::string& name, uint64_t parent,
               Clock::time_point start, Clock::time_point end);

  struct Summary {
    int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  /// Per span name: count, summed duration and self time, p50/p99 duration.
  std::map<std::string, Summary> Summarize() const;

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes {"summary": {...}, "spans": [...]} (at most `max_spans` spans,
  /// every one counted in the summary).
  widen::Status WriteJson(const std::string& path, size_t max_spans) const;

 private:
  struct Span {
    std::string name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;  // steady clock
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
