#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/memprof.h"
#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/logging.h"

namespace widen::obs {

const char* ProfPhaseName(ProfPhase phase) {
  switch (phase) {
    case ProfPhase::kOther: return "other";
    case ProfPhase::kSampling: return "sampling";
    case ProfPhase::kForward: return "forward";
    case ProfPhase::kBackward: return "backward";
    case ProfPhase::kOptimizer: return "optimizer";
    case ProfPhase::kServeCold: return "serve_cold";
    case ProfPhase::kServeWarm: return "serve_warm";
  }
  return "unknown";
}

const char* ProfOpName(ProfOp op) {
  switch (op) {
    case ProfOp::kMatMul: return "MatMul";
    case ProfOp::kTranspose: return "Transpose";
    case ProfOp::kAdd: return "Add";
    case ProfOp::kSub: return "Sub";
    case ProfOp::kMul: return "Mul";
    case ProfOp::kScale: return "Scale";
    case ProfOp::kAddScalar: return "AddScalar";
    case ProfOp::kMaximum: return "Maximum";
    case ProfOp::kRelu: return "Relu";
    case ProfOp::kLeakyRelu: return "LeakyRelu";
    case ProfOp::kElu: return "Elu";
    case ProfOp::kTanh: return "Tanh";
    case ProfOp::kSigmoid: return "Sigmoid";
    case ProfOp::kExp: return "Exp";
    case ProfOp::kLog: return "Log";
    case ProfOp::kSoftmaxRows: return "SoftmaxRows";
    case ProfOp::kMaskedSoftmaxRows: return "MaskedSoftmaxRows";
    case ProfOp::kSoftmaxCrossEntropy: return "SoftmaxCrossEntropy";
    case ProfOp::kSumSquares: return "SumSquares";
    case ProfOp::kConcatRows: return "ConcatRows";
    case ProfOp::kConcatCols: return "ConcatCols";
    case ProfOp::kSliceRows: return "SliceRows";
    case ProfOp::kSliceCols: return "SliceCols";
    case ProfOp::kScaleBy: return "ScaleBy";
    case ProfOp::kGatherRows: return "GatherRows";
    case ProfOp::kSumRows: return "SumRows";
    case ProfOp::kSumAll: return "SumAll";
    case ProfOp::kRowL2Normalize: return "RowL2Normalize";
    case ProfOp::kDropout: return "Dropout";
  }
  return "unknown";
}

namespace {

// Report annotations (SetProfileAnnotation). Ordered map so DumpJson output
// is stable; leaked at exit like the thread-table registry.
struct AnnotationMap {
  std::mutex mu;
  std::map<std::string, std::string> entries;
};

AnnotationMap& GetAnnotations() {
  static AnnotationMap* const map = new AnnotationMap();
  return *map;
}

}  // namespace

void SetProfileAnnotation(const std::string& key, const std::string& value) {
  AnnotationMap& map = GetAnnotations();
  std::lock_guard<std::mutex> lock(map.mu);
  map.entries[key] = value;
}

std::string GetProfileAnnotation(const std::string& key) {
  AnnotationMap& map = GetAnnotations();
  std::lock_guard<std::mutex> lock(map.mu);
  const auto it = map.entries.find(key);
  return it == map.entries.end() ? std::string() : it->second;
}

namespace internal_prof {

std::atomic<bool> g_profiler_enabled{false};

namespace {

struct Registry {
  std::mutex mu;
  std::vector<ThreadProfTable*> tables;  // leaked at exit, like the trace
};                                       // buffers: workers never outlive it

Registry& GetRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

}  // namespace

ThreadProfTable& GetThreadTable() {
  thread_local ThreadProfTable* const table = [] {
    auto* t = new ThreadProfTable();
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.tables.push_back(t);
    return t;
  }();
  return *table;
}

ProfPhase& CurrentPhaseRef() {
  thread_local ProfPhase phase = ProfPhase::kOther;
  return phase;
}

namespace {

// Innermost live phase scope on this thread, for self-time accounting.
thread_local ScopedProfPhase* t_current_scope = nullptr;

}  // namespace

}  // namespace internal_prof

ScopedProfPhase::ScopedProfPhase(ProfPhase phase)
    : active_(ProfilerEnabled()) {
  if (!active_) return;
  phase_ = phase;
  prev_phase_ = internal_prof::CurrentPhaseRef();
  internal_prof::CurrentPhaseRef() = phase;
  parent_ = internal_prof::t_current_scope;
  internal_prof::t_current_scope = this;
  start_ns_ = internal_prof::ProfNowNs();
}

ScopedProfPhase::~ScopedProfPhase() {
  if (!active_) return;
  const int64_t elapsed = internal_prof::ProfNowNs() - start_ns_;
  internal_prof::CellAdd(
      internal_prof::GetThreadTable().phases[static_cast<int>(phase_)].wall_ns,
      elapsed - child_ns_);
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
  internal_prof::t_current_scope = parent_;
  internal_prof::CurrentPhaseRef() = prev_phase_;
}

Profiler& Profiler::Get() {
  static Profiler* const profiler = new Profiler();
  return *profiler;
}

void Profiler::Start() {
  internal_prof::g_profiler_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::Stop() {
  internal_prof::g_profiler_enabled.store(false, std::memory_order_relaxed);
}

void Profiler::Reset() {
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (internal_prof::ThreadProfTable* table : reg.tables) {
    for (auto& per_phase : table->ops) {
      for (internal_prof::OpCell& c : per_phase) {
        c.calls.store(0, std::memory_order_relaxed);
        c.flops.store(0, std::memory_order_relaxed);
        c.bytes.store(0, std::memory_order_relaxed);
        c.wall_ns.store(0, std::memory_order_relaxed);
      }
    }
    for (internal_prof::PhaseCell& c : table->phases) {
      c.wall_ns.store(0, std::memory_order_relaxed);
      c.parallel_calls.store(0, std::memory_order_relaxed);
      c.parallel_chunks.store(0, std::memory_order_relaxed);
      c.parallel_inline.store(0, std::memory_order_relaxed);
    }
  }
  ResetMemProf();
}

Profiler::OpTotals Profiler::Totals(ProfOp op, ProfPhase phase) const {
  OpTotals totals;
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const internal_prof::ThreadProfTable* table : reg.tables) {
    const internal_prof::OpCell& c =
        table->ops[static_cast<int>(op)][static_cast<int>(phase)];
    totals.calls += c.calls.load(std::memory_order_relaxed);
    totals.flops += c.flops.load(std::memory_order_relaxed);
    totals.bytes += c.bytes.load(std::memory_order_relaxed);
    totals.wall_ns += c.wall_ns.load(std::memory_order_relaxed);
  }
  return totals;
}

Profiler::OpTotals Profiler::Totals(ProfOp op) const {
  OpTotals totals;
  for (int p = 0; p < kNumProfPhases; ++p) {
    const OpTotals t = Totals(op, static_cast<ProfPhase>(p));
    totals.calls += t.calls;
    totals.flops += t.flops;
    totals.bytes += t.bytes;
    totals.wall_ns += t.wall_ns;
  }
  return totals;
}

int64_t Profiler::PhaseWallNs(ProfPhase phase) const {
  int64_t total = 0;
  auto& reg = internal_prof::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const internal_prof::ThreadProfTable* table : reg.tables) {
    total += table->phases[static_cast<int>(phase)].wall_ns.load(
        std::memory_order_relaxed);
  }
  return total;
}

namespace {

double EnvPeakOrDefault(const char* env_name, double fallback) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || env[0] == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || !(v > 0.0)) {
    WIDEN_LOG(Warning) << "ignoring invalid " << env_name << "='" << env
                       << "'";
    return fallback;
  }
  return v;
}

double PeakGflops() {
  static const double v = EnvPeakOrDefault("WIDEN_ROOFLINE_GFLOPS",
                                           Profiler::kDefaultPeakGflops);
  return v;
}

double PeakGbs() {
  static const double v =
      EnvPeakOrDefault("WIDEN_ROOFLINE_GBS", Profiler::kDefaultPeakGbs);
  return v;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

// One aggregated (op, phase) row plus its roofline-derived rates.
struct OpRow {
  ProfOp op;
  ProfPhase phase;
  Profiler::OpTotals t;
  double wall_ms = 0.0;
  double gflops = 0.0;   // achieved GFLOP/s over the op's own wall time
  double gbs = 0.0;      // achieved GB/s over the op's own wall time
  double ai = 0.0;       // arithmetic intensity, FLOPs/byte
  bool compute_bound = false;
};

std::vector<OpRow> CollectRows(const Profiler& prof, double ridge) {
  std::vector<OpRow> rows;
  for (int o = 0; o < kNumProfOps; ++o) {
    for (int p = 0; p < kNumProfPhases; ++p) {
      OpRow row;
      row.op = static_cast<ProfOp>(o);
      row.phase = static_cast<ProfPhase>(p);
      row.t = prof.Totals(row.op, row.phase);
      if (row.t.calls == 0) continue;
      row.wall_ms = static_cast<double>(row.t.wall_ns) / 1e6;
      if (row.t.wall_ns > 0) {
        row.gflops = static_cast<double>(row.t.flops) /
                     static_cast<double>(row.t.wall_ns);
        row.gbs = static_cast<double>(row.t.bytes) /
                  static_cast<double>(row.t.wall_ns);
      }
      row.ai = row.t.bytes > 0 ? static_cast<double>(row.t.flops) /
                                     static_cast<double>(row.t.bytes)
                               : 0.0;
      row.compute_bound = row.ai >= ridge;
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const OpRow& a, const OpRow& b) {
    return a.t.wall_ns > b.t.wall_ns;
  });
  return rows;
}

}  // namespace

double Profiler::RidgeFlopsPerByte() const { return PeakGflops() / PeakGbs(); }

std::string Profiler::DumpJson() const {
  const double ridge = RidgeFlopsPerByte();
  const std::vector<OpRow> rows = CollectRows(*this, ridge);
  const MemProfSnapshot mem = TakeMemProfSnapshot();

  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"roofline\": {"
      << "\"peak_gflops\": " << JsonNum(PeakGflops())
      << ", \"peak_gbs\": " << JsonNum(PeakGbs())
      << ", \"ridge_flops_per_byte\": " << JsonNum(ridge) << "},\n";

  {
    AnnotationMap& map = GetAnnotations();
    std::lock_guard<std::mutex> lock(map.mu);
    out << "  \"annotations\": {";
    bool first_ann = true;
    for (const auto& [key, value] : map.entries) {
      out << (first_ann ? "" : ", ") << "\"" << JsonEscape(key) << "\": \""
          << JsonEscape(value) << "\"";
      first_ann = false;
    }
    out << "},\n";
  }

  out << "  \"phases\": [";
  bool first = true;
  for (int p = 0; p < kNumProfPhases; ++p) {
    const ProfPhase phase = static_cast<ProfPhase>(p);
    const int64_t wall_ns = PhaseWallNs(phase);
    int64_t pf_calls = 0, pf_chunks = 0, pf_inline = 0;
    {
      auto& reg = internal_prof::GetRegistry();
      std::lock_guard<std::mutex> lock(reg.mu);
      for (const internal_prof::ThreadProfTable* table : reg.tables) {
        const internal_prof::PhaseCell& c = table->phases[p];
        pf_calls += c.parallel_calls.load(std::memory_order_relaxed);
        pf_chunks += c.parallel_chunks.load(std::memory_order_relaxed);
        pf_inline += c.parallel_inline.load(std::memory_order_relaxed);
      }
    }
    const MemProfPhaseStats& alloc = mem.phases[p];
    if (wall_ns == 0 && pf_calls == 0 && pf_inline == 0 &&
        alloc.tensor_allocs == 0 && alloc.grad_allocs == 0 &&
        alloc.tape_nodes == 0) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "    {\"phase\": \""
        << ProfPhaseName(phase) << "\""
        << ", \"wall_ms\": " << JsonNum(static_cast<double>(wall_ns) / 1e6)
        << ", \"parallel_calls\": " << pf_calls
        << ", \"parallel_chunks\": " << pf_chunks
        << ", \"parallel_inline\": " << pf_inline
        << ", \"tensor_allocs\": " << alloc.tensor_allocs
        << ", \"tensor_alloc_bytes\": " << alloc.tensor_bytes
        << ", \"grad_allocs\": " << alloc.grad_allocs
        << ", \"grad_alloc_bytes\": " << alloc.grad_bytes
        << ", \"tape_nodes\": " << alloc.tape_nodes << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"ops\": [";
  first = true;
  for (const OpRow& row : rows) {
    out << (first ? "\n" : ",\n") << "    {\"op\": \"" << ProfOpName(row.op)
        << "\", \"phase\": \"" << ProfPhaseName(row.phase) << "\""
        << ", \"calls\": " << row.t.calls << ", \"flops\": " << row.t.flops
        << ", \"bytes\": " << row.t.bytes
        << ", \"wall_ms\": " << JsonNum(row.wall_ms)
        << ", \"gflops\": " << JsonNum(row.gflops)
        << ", \"gbs\": " << JsonNum(row.gbs)
        << ", \"arithmetic_intensity\": " << JsonNum(row.ai)
        << ", \"bound\": \"" << (row.compute_bound ? "compute" : "memory")
        << "\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  const MemProfPhaseStats total = mem.Total();
  // The serve layer keeps this gauge current; 0 when no store exists.
  WIDEN_METRIC_GAUGE(store_bytes, "widen_serve_store_resident_bytes",
                     "Bytes held by EmbeddingStore entries (rows + indexing "
                     "overhead)");
  out << "  \"memory\": {"
      << "\"peak_rss_bytes\": " << mem.peak_rss_bytes
      << ", \"current_rss_bytes\": " << mem.current_rss_bytes
      << ", \"embedding_store_resident_bytes\": "
      << static_cast<int64_t>(store_bytes->Value())
      << ", \"tensor_allocs\": " << total.tensor_allocs
      << ", \"tensor_alloc_bytes\": " << total.tensor_bytes
      << ", \"grad_allocs\": " << total.grad_allocs
      << ", \"grad_alloc_bytes\": " << total.grad_bytes
      << ", \"tape_nodes\": " << total.tape_nodes << "}\n}\n";
  return out.str();
}

std::string Profiler::FormatTopOps(int max_rows) const {
  const double ridge = RidgeFlopsPerByte();
  std::vector<OpRow> rows = CollectRows(*this, ridge);
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-20s %-10s %10s %10s %9s %8s %8s  %s\n", "op", "phase",
                "calls", "wall_ms", "GFLOP/s", "GB/s", "AI", "bound");
  out << line;
  out << std::string(88, '-') << "\n";
  int emitted = 0;
  for (const OpRow& row : rows) {
    if (emitted++ >= max_rows) break;
    std::snprintf(line, sizeof(line),
                  "%-20s %-10s %10lld %10.3f %9.3f %8.3f %8.3f  %s\n",
                  ProfOpName(row.op), ProfPhaseName(row.phase),
                  static_cast<long long>(row.t.calls), row.wall_ms,
                  row.gflops, row.gbs, row.ai,
                  row.compute_bound ? "compute" : "memory");
    out << line;
  }
  if (rows.empty()) out << "(no ops recorded)\n";
  return out.str();
}

Status Profiler::WriteReport(const std::string& path) const {
  return WriteStringToFile(path, DumpJson());
}

namespace {

std::string* g_profile_exit_path = nullptr;

void WriteProfileAtExit() {
  if (g_profile_exit_path == nullptr) return;
  Profiler& prof = Profiler::Get();
  prof.Stop();
  const Status status = prof.WriteReport(*g_profile_exit_path);
  if (!status.ok()) {
    WIDEN_LOG(Error) << "profile export failed: " << status.message();
    return;
  }
  std::fprintf(stderr, "[profile] wrote %s; top ops by wall time:\n%s",
               g_profile_exit_path->c_str(), prof.FormatTopOps().c_str());
}

}  // namespace

void InstallProfileReportOnExit(const std::string& profile_out) {
  std::string path = profile_out;
  if (path.empty()) {
    const char* env = std::getenv("WIDEN_PROFILE");
    if (env != nullptr && env[0] != '\0') path = env;
  }
  if (path.empty()) return;
  WIDEN_CHECK(g_profile_exit_path == nullptr)
      << "InstallProfileReportOnExit called twice";
  g_profile_exit_path = new std::string(std::move(path));
  Profiler::Get().Start();
  std::atexit(WriteProfileAtExit);
}

}  // namespace widen::obs
