#include "obs/trace.h"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/logging.h"

namespace widen::obs {

namespace internal_trace {

std::atomic<bool> g_trace_enabled{false};

namespace {

// Per-thread event buffer. Each buffer has its own mutex, taken by the
// owning thread only on append (uncontended) and by exporters on read, so
// recording threads never serialize against each other.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  int log_thread_id = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;  // leaked at exit; trivially small
  std::atomic<size_t> total_events{0};
  std::atomic<size_t> dropped_events{0};
};

Registry& GetRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* const buffer = [] {
    auto* b = new ThreadBuffer();
    b->log_thread_id = CurrentThreadLogId();
    b->events.reserve(1024);
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void AppendEvent(const Event& event) {
  Registry& reg = GetRegistry();
  if (reg.total_events.load(std::memory_order_relaxed) >=
      TraceRecorder::kMaxEvents) {
    reg.dropped_events.fetch_add(1, std::memory_order_relaxed);
    WIDEN_METRIC_COUNTER(dropped, "widen_trace_dropped_spans_total",
                         "Trace spans dropped at the TraceRecorder cap");
    dropped->Increment();
    return;
  }
  reg.total_events.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer& buffer = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(event);
}

}  // namespace internal_trace

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Start() {
  internal_trace::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Stop() {
  internal_trace::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Clear() {
  auto& reg = internal_trace::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto* buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  reg.total_events.store(0, std::memory_order_relaxed);
}

size_t TraceRecorder::DroppedCount() const {
  return internal_trace::GetRegistry().dropped_events.load(
      std::memory_order_relaxed);
}

size_t TraceRecorder::EventCount() const {
  auto& reg = internal_trace::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  size_t total = 0;
  for (auto* buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

namespace {

void AppendJsonEscaped(std::ostringstream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
}

}  // namespace

std::string TraceRecorder::ExportChromeJson() const {
  auto& reg = internal_trace::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (auto* buffer : reg.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const auto& e : buffer->events) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"";
      AppendJsonEscaped(out, e.name);
      out << "\", \"cat\": \"";
      AppendJsonEscaped(out, e.category);
      out << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << buffer->log_thread_id << ", \"ts\": " << e.start_us
          << ", \"dur\": " << e.duration_us << "}";
      first = false;
    }
  }
  out << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteStringToFile(path, ExportChromeJson());
}

namespace {

std::string* g_trace_exit_path = nullptr;

void ExportTraceAtExit() {
  if (g_trace_exit_path == nullptr) return;
  TraceRecorder::Get().Stop();
  const Status status =
      TraceRecorder::Get().WriteChromeJson(*g_trace_exit_path);
  if (!status.ok()) {
    WIDEN_LOG(Error) << "trace export failed: " << status.message();
  } else {
    std::fprintf(stderr, "[trace] wrote %zu events to %s\n",
                 TraceRecorder::Get().EventCount(),
                 g_trace_exit_path->c_str());
  }
}

}  // namespace

Status TraceRecorder::Flush() {
  if (g_trace_exit_path == nullptr) return Status::OK();
  WIDEN_RETURN_IF_ERROR(WriteChromeJson(*g_trace_exit_path));
  // Clearing after a successful write bounds a long-running server's trace
  // memory to one flush interval; the dropped-span count is preserved.
  Clear();
  return Status::OK();
}

void InstallTraceExportOnExit(const std::string& trace_out) {
  std::string path = trace_out;
  if (path.empty()) {
    const char* env = std::getenv("WIDEN_TRACE");
    if (env != nullptr && env[0] != '\0') path = env;
  }
  if (path.empty()) return;
  WIDEN_CHECK(g_trace_exit_path == nullptr)
      << "InstallTraceExportOnExit called twice";
  g_trace_exit_path = new std::string(std::move(path));
  TraceRecorder::Get().Start();
  std::atexit(ExportTraceAtExit);
}

}  // namespace widen::obs
