// Chrome trace_event recording (DESIGN.md §11).
//
// While tracing is enabled, every StageScope (obs/stage.h) whose stage has a
// trace category records one complete ("ph":"X") event with the stage's
// name, category, start timestamp, and duration onto a thread-local buffer.
// Buffers register themselves with the process-wide TraceRecorder, which can
// export everything as Chrome trace_event JSON — load the file in
// chrome://tracing or Perfetto to see the per-thread nesting of epochs,
// batches and serve requests. Timestamps are microseconds on the obs clock
// (MonotonicMicros), the axis flight records and RequestContext stamps use.
//
// Cost model: when tracing is disabled (the default) a scope pays one
// relaxed atomic load and a branch for this sink — no clock read, no
// allocation. Enabled, it appends one POD event to a pre-grown thread-local
// vector.
//
// Enable programmatically with TraceRecorder::Get().Start(), or for CLIs via
// the WIDEN_TRACE environment variable / --trace_out flags, which write the
// JSON at process exit.

#ifndef WIDEN_OBS_TRACE_H_
#define WIDEN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace widen::obs {

namespace internal_trace {

extern std::atomic<bool> g_trace_enabled;  // default: false

struct Event {
  const char* name;  // static strings from the stage table
  const char* category;
  int64_t start_us;  // MonotonicMicros axis
  int64_t duration_us;
};

// Appends to this thread's buffer (registers the buffer on first use).
void AppendEvent(const Event& event);

}  // namespace internal_trace

/// True while trace events are being recorded.
inline bool TraceEnabled() {
  return internal_trace::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide collector of trace events.
class TraceRecorder {
 public:
  static TraceRecorder& Get();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Begins recording. Events already buffered are kept.
  void Start();
  /// Stops recording; buffered events remain available for export.
  void Stop();
  /// Drops all buffered events on every thread.
  void Clear();

  /// Total buffered events across all threads.
  size_t EventCount() const;

  /// Chrome trace_event JSON: {"traceEvents": [{"name", "cat", "ph": "X",
  /// "pid", "tid", "ts", "dur"}, ...]} — loadable in chrome://tracing.
  std::string ExportChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

  /// Writes the buffered events to the path registered with
  /// InstallTraceExportOnExit and clears the buffers, so a long-running
  /// server can checkpoint its trace mid-flight (SIGQUIT, /tracez) instead
  /// of waiting for exit. OK no-op when no exit path is installed.
  Status Flush();

  /// Buffers stop growing past this many events in total (32 MiB of
  /// events); events beyond the cap are dropped and counted
  /// (widen_trace_dropped_spans_total and DroppedCount()) until Clear() or
  /// Flush() empties the buffers.
  static constexpr size_t kMaxEvents = 1u << 20;

  /// Events dropped at the cap since process start (not reset by Clear()).
  size_t DroppedCount() const;

 private:
  TraceRecorder() = default;
};

/// Installs the WIDEN_TRACE handling for a CLI: if `trace_out` (from a
/// --trace_out flag) is non-empty, or the WIDEN_TRACE environment variable
/// names a path, starts tracing now and writes the Chrome JSON there at
/// process exit. Safe to call once per process.
void InstallTraceExportOnExit(const std::string& trace_out);

}  // namespace widen::obs

#endif  // WIDEN_OBS_TRACE_H_
