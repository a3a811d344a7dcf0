// Op-level roofline profiler (DESIGN.md §12).
//
// When enabled, every tensor op records (calls, FLOPs, bytes moved, wall
// time) into a per-thread table indexed by (op, stage). The stage is the
// innermost enclosing StageScope whose stage feeds the profiler (obs/stage.h:
// sampling, forward, backward, optimizer, cold_encode, embed); ops outside
// every such scope land in Stage::kOther. Backward() opens the backward stage
// itself, so tape closures are attributed correctly no matter where it is
// called from. The same per-thread table carries each stage's self wall
// time, ParallelForGrid fan-out and the memprof allocation counters.
//
// FLOP and byte counts are ANALYTIC, not measured: each op site passes the
// closed-form operation count for its shapes (e.g. 2mnk per MatMul pass) and
// the algorithmic minimum traffic in bytes — 4 x (elements read + elements
// written), counting a read-modify-write accumulation as one read plus one
// write. They are exact for the executed shapes; only wall time is measured.
// Achieved GFLOP/s, GB/s, and arithmetic intensity (FLOPs/byte) are derived
// at report time, and each op is classified compute- vs memory-bound against
// a roofline ridge point (WIDEN_ROOFLINE_GFLOPS / WIDEN_ROOFLINE_GBS
// override the documented scalar-CPU defaults).
//
// Cost model: with the profiler disabled (the default) every hook is one
// relaxed atomic load and a branch — no clock read, no allocation, no TLS
// write. Enabled hooks read the obs clock twice and bump plain single-writer
// cells in a thread-local table (registered once per thread, same pattern as
// the trace buffers), so recording threads never contend.

#ifndef WIDEN_OBS_PROFILER_H_
#define WIDEN_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/stage.h"
#include "util/status.h"

namespace widen::obs {

/// Profiled tensor ops (one enumerator per instrumented kernel family).
enum class ProfOp : uint8_t {
  kMatMul = 0,
  kTranspose,
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddScalar,
  kMaximum,
  kRelu,
  kLeakyRelu,
  kElu,
  kTanh,
  kSigmoid,
  kExp,
  kLog,
  kSoftmaxRows,
  kMaskedSoftmaxRows,
  kSoftmaxCrossEntropy,
  kSumSquares,
  kConcatRows,
  kConcatCols,
  kSliceRows,
  kSliceCols,
  kScaleBy,
  kGatherRows,
  kSumRows,
  kSumAll,
  kRowL2Normalize,
  kDropout,
};
inline constexpr int kNumProfOps = 29;
const char* ProfOpName(ProfOp op);

/// Free-form key/value labels attached to profiler reports so a dump is
/// attributable to the code path that produced it (active SIMD ISA, ...).
/// Last write per key wins; thread-safe.
void SetProfileAnnotation(const std::string& key, const std::string& value);
/// The current value for `key` ("" when unset). Mainly for tests.
std::string GetProfileAnnotation(const std::string& key);

namespace internal_prof {

// One (op, stage) accumulator. Written by its owning thread only, with
// relaxed stores (no RMW, so no lock prefix on the hot path); readers sum
// tables across threads with relaxed loads — monitoring-grade, exact once
// writers are quiescent.
struct OpCell {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> flops{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> wall_ns{0};
};

// Per-stage accumulators that are not tied to one op: stage self wall time
// (nested profiler stages subtract their children), ParallelForGrid fan-out
// and the memprof allocation counters (obs/memprof.h).
struct StageCell {
  std::atomic<int64_t> wall_ns{0};
  std::atomic<int64_t> parallel_calls{0};
  std::atomic<int64_t> parallel_chunks{0};
  std::atomic<int64_t> parallel_inline{0};
  std::atomic<int64_t> tensor_allocs{0};
  std::atomic<int64_t> tensor_bytes{0};
  std::atomic<int64_t> grad_allocs{0};
  std::atomic<int64_t> grad_bytes{0};
  std::atomic<int64_t> tape_nodes{0};
};

struct ThreadProfTable {
  OpCell ops[kNumProfOps][kNumStages];
  StageCell stages[kNumStages];
};

// This thread's table; registers it with the global profiler on first use.
ThreadProfTable& GetThreadTable();

// Single-writer add: load + store, both relaxed (the owner is the only
// writer; readers tolerate monitoring-grade staleness).
inline void CellAdd(std::atomic<int64_t>& cell, int64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

// The stage ops on this thread are attributed to; set by StageScope.
Stage& CurrentStageRef();

inline StageCell& CurrentStageCell() {
  return GetThreadTable().stages[static_cast<int>(CurrentStageRef())];
}

}  // namespace internal_prof

/// RAII op hook, constructed at the top of each instrumented kernel with the
/// analytic FLOP/byte counts for its shapes. Counts are credited on
/// construction, wall time on destruction.
class ScopedOpProfile {
 public:
  ScopedOpProfile(ProfOp op, int64_t flops, int64_t bytes) {
    if (!ProfilerEnabled()) {
      cell_ = nullptr;
      return;
    }
    using internal_prof::CellAdd;
    cell_ = &internal_prof::GetThreadTable()
                 .ops[static_cast<int>(op)]
                     [static_cast<int>(internal_prof::CurrentStageRef())];
    CellAdd(cell_->calls, 1);
    CellAdd(cell_->flops, flops);
    CellAdd(cell_->bytes, bytes);
    start_ns_ = MonotonicNanos();
  }
  ~ScopedOpProfile() {
    if (cell_ != nullptr) {
      internal_prof::CellAdd(cell_->wall_ns, MonotonicNanos() - start_ns_);
    }
  }

  ScopedOpProfile(const ScopedOpProfile&) = delete;
  ScopedOpProfile& operator=(const ScopedOpProfile&) = delete;

 private:
  internal_prof::OpCell* cell_;
  int64_t start_ns_ = 0;
};

/// Records one ParallelForGrid dispatch against the current stage
/// (chunks == 0 means the call ran inline as a single chunk).
inline void ProfileParallelDispatch(int64_t chunks) {
  if (!ProfilerEnabled()) return;
  using internal_prof::CellAdd;
  internal_prof::StageCell& cell = internal_prof::CurrentStageCell();
  if (chunks == 0) {
    CellAdd(cell.parallel_inline, 1);
  } else {
    CellAdd(cell.parallel_calls, 1);
    CellAdd(cell.parallel_chunks, chunks);
  }
}

/// Process-wide profiler: enable switch, cross-thread aggregation, reports.
class Profiler {
 public:
  static Profiler& Get();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Begins recording (also enables the memprof hooks — one switch governs
  /// the whole deep-profiling layer).
  void Start();
  /// Stops recording; accumulated tables remain available for export.
  void Stop();
  /// Zeroes every table on every registered thread (op, stage and memprof
  /// counters alike).
  void Reset();

  struct OpTotals {
    int64_t calls = 0;
    int64_t flops = 0;
    int64_t bytes = 0;
    int64_t wall_ns = 0;
  };

  /// Per-stage counters summed over threads.
  struct StageTotals {
    int64_t wall_ns = 0;  // self time
    int64_t parallel_calls = 0;
    int64_t parallel_chunks = 0;
    int64_t parallel_inline = 0;
    int64_t tensor_allocs = 0;
    int64_t tensor_bytes = 0;
    int64_t grad_allocs = 0;
    int64_t grad_bytes = 0;
    int64_t tape_nodes = 0;
  };

  /// Totals for one op summed over stages and threads (tests, reports).
  OpTotals Totals(ProfOp op) const;
  /// Totals for one (op, stage) summed over threads.
  OpTotals Totals(ProfOp op, Stage stage) const;
  /// Stage counters summed over threads.
  StageTotals Totals(Stage stage) const;
  /// Stage self wall time summed over threads, in nanoseconds.
  int64_t PhaseWallNs(Stage stage) const;

  /// Roofline ridge point in FLOPs/byte: ops with a higher arithmetic
  /// intensity are compute-bound, lower memory-bound. Defaults to
  /// kDefaultPeakGflops / kDefaultPeakGbs; override either peak with the
  /// WIDEN_ROOFLINE_GFLOPS / WIDEN_ROOFLINE_GBS environment variables.
  double RidgeFlopsPerByte() const;

  // Documented scalar-CPU roofline defaults: ~2 FLOPs/cycle at ~4 GHz
  // against ~10 GB/s sustained single-core DRAM bandwidth. Deliberately
  // round numbers. The SIMD MatMul kernels (tensor/simd/) outrun this peak:
  // perfbench's traced kernels.matmul_gflops has read 23-44 GFLOP/s on
  // AVX2, so with the defaults MatMul rows are classified against a ridge
  // they exceed. Set WIDEN_ROOFLINE_GFLOPS to the host's measured peak.
  static constexpr double kDefaultPeakGflops = 8.0;
  static constexpr double kDefaultPeakGbs = 10.0;

  /// Full JSON report: per-(op, stage) rows with derived GFLOP/s, GB/s,
  /// arithmetic intensity and roofline class, per-stage wall/fan-out/alloc
  /// stats ("phases"), and the memory section.
  std::string DumpJson() const;

  /// Human-readable table of the heaviest (op, stage) rows by wall time.
  std::string FormatTopOps(int max_rows = 12) const;

  /// Writes DumpJson() to `path`.
  Status WriteReport(const std::string& path) const;
};

/// Installs --profile_out handling for a CLI: if `profile_out` (from the
/// flag) is non-empty, or the WIDEN_PROFILE environment variable names a
/// path, starts the profiler now and at process exit writes the JSON report
/// there and prints the top-ops table to stderr. Safe to call once per
/// process.
void InstallProfileReportOnExit(const std::string& profile_out);

}  // namespace widen::obs

#endif  // WIDEN_OBS_PROFILER_H_
