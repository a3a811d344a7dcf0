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

// Sums `read(table)` over every registered thread table.
template <typename T, typename Read>
T SumTables(Read read) {
  T total{};
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const ThreadProfTable* table : reg.tables) read(*table, total);
  return total;
}

int64_t Load(const std::atomic<int64_t>& cell) {
  return cell.load(std::memory_order_relaxed);
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

Stage& CurrentStageRef() {
  thread_local Stage stage = Stage::kOther;
  return stage;
}

}  // namespace internal_prof

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
    // Every cell is a relaxed atomic and the table holds nothing else, so
    // zeroing in place is a fresh table (writers keep their pointers).
    for (auto& per_stage : table->ops) {
      for (internal_prof::OpCell& c : per_stage) {
        for (auto* v : {&c.calls, &c.flops, &c.bytes, &c.wall_ns}) {
          v->store(0, std::memory_order_relaxed);
        }
      }
    }
    for (internal_prof::StageCell& c : table->stages) {
      for (auto* v : {&c.wall_ns, &c.parallel_calls, &c.parallel_chunks,
                      &c.parallel_inline, &c.tensor_allocs, &c.tensor_bytes,
                      &c.grad_allocs, &c.grad_bytes, &c.tape_nodes}) {
        v->store(0, std::memory_order_relaxed);
      }
    }
  }
}

Profiler::OpTotals Profiler::Totals(ProfOp op, Stage stage) const {
  using internal_prof::Load;
  return internal_prof::SumTables<OpTotals>(
      [&](const internal_prof::ThreadProfTable& table, OpTotals& t) {
        const internal_prof::OpCell& c =
            table.ops[static_cast<int>(op)][static_cast<int>(stage)];
        t.calls += Load(c.calls);
        t.flops += Load(c.flops);
        t.bytes += Load(c.bytes);
        t.wall_ns += Load(c.wall_ns);
      });
}

Profiler::OpTotals Profiler::Totals(ProfOp op) const {
  OpTotals totals;
  for (int s = 0; s < kNumStages; ++s) {
    const OpTotals t = Totals(op, static_cast<Stage>(s));
    totals.calls += t.calls;
    totals.flops += t.flops;
    totals.bytes += t.bytes;
    totals.wall_ns += t.wall_ns;
  }
  return totals;
}

Profiler::StageTotals Profiler::Totals(Stage stage) const {
  using internal_prof::Load;
  return internal_prof::SumTables<StageTotals>(
      [&](const internal_prof::ThreadProfTable& table, StageTotals& t) {
        const internal_prof::StageCell& c =
            table.stages[static_cast<int>(stage)];
        t.wall_ns += Load(c.wall_ns);
        t.parallel_calls += Load(c.parallel_calls);
        t.parallel_chunks += Load(c.parallel_chunks);
        t.parallel_inline += Load(c.parallel_inline);
        t.tensor_allocs += Load(c.tensor_allocs);
        t.tensor_bytes += Load(c.tensor_bytes);
        t.grad_allocs += Load(c.grad_allocs);
        t.grad_bytes += Load(c.grad_bytes);
        t.tape_nodes += Load(c.tape_nodes);
      });
}

int64_t Profiler::PhaseWallNs(Stage stage) const {
  return Totals(stage).wall_ns;
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

// One aggregated (op, stage) row plus its roofline-derived rates.
struct OpRow {
  ProfOp op;
  Stage stage;
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
    for (int s = 0; s < kNumStages; ++s) {
      OpRow row;
      row.op = static_cast<ProfOp>(o);
      row.stage = static_cast<Stage>(s);
      row.t = prof.Totals(row.op, row.stage);
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

  // Per-stage rows, under the report's "phases"/"phase" keys.
  out << "  \"phases\": [";
  bool first = true;
  StageTotals total;
  for (int s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    const StageTotals t = Totals(stage);
    total.tensor_allocs += t.tensor_allocs;
    total.tensor_bytes += t.tensor_bytes;
    total.grad_allocs += t.grad_allocs;
    total.grad_bytes += t.grad_bytes;
    total.tape_nodes += t.tape_nodes;
    if (t.wall_ns == 0 && t.parallel_calls == 0 && t.parallel_inline == 0 &&
        t.tensor_allocs == 0 && t.grad_allocs == 0 && t.tape_nodes == 0) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "    {\"phase\": \"" << StageName(stage)
        << "\""
        << ", \"wall_ms\": " << JsonNum(static_cast<double>(t.wall_ns) / 1e6)
        << ", \"parallel_calls\": " << t.parallel_calls
        << ", \"parallel_chunks\": " << t.parallel_chunks
        << ", \"parallel_inline\": " << t.parallel_inline
        << ", \"tensor_allocs\": " << t.tensor_allocs
        << ", \"tensor_alloc_bytes\": " << t.tensor_bytes
        << ", \"grad_allocs\": " << t.grad_allocs
        << ", \"grad_alloc_bytes\": " << t.grad_bytes
        << ", \"tape_nodes\": " << t.tape_nodes << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"ops\": [";
  first = true;
  for (const OpRow& row : rows) {
    out << (first ? "\n" : ",\n") << "    {\"op\": \"" << ProfOpName(row.op)
        << "\", \"phase\": \"" << StageName(row.stage) << "\""
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

  // The serve layer keeps this gauge current; 0 when no store exists.
  WIDEN_METRIC_GAUGE(store_bytes, "widen_serve_store_resident_bytes",
                     "Approximate heap bytes held by the embedding store "
                     "(rows, read sets and indexing overhead)");
  out << "  \"memory\": {"
      << "\"peak_rss_bytes\": " << ReadPeakRssBytes()
      << ", \"current_rss_bytes\": " << ReadCurrentRssBytes()
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
                "%-20s %-12s %10s %10s %9s %8s %8s  %s\n", "op", "stage",
                "calls", "wall_ms", "GFLOP/s", "GB/s", "AI", "bound");
  out << line;
  out << std::string(90, '-') << "\n";
  int emitted = 0;
  for (const OpRow& row : rows) {
    if (emitted++ >= max_rows) break;
    std::snprintf(line, sizeof(line),
                  "%-20s %-12s %10lld %10.3f %9.3f %8.3f %8.3f  %s\n",
                  ProfOpName(row.op), StageName(row.stage),
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
