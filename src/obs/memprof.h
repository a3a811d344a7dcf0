// Allocation accounting for the tensor layer (DESIGN.md §12).
//
// Counts tape-driven allocations per profiler stage: tensor data buffers
// (count + bytes), lazily-sized gradient buffers (count + bytes), and tape
// nodes attached. Together with the peak-RSS sample and the EmbeddingStore
// resident-bytes gauge this is the baseline the planned arena-allocated
// autograd refactor (ROADMAP) must beat — the refactor succeeds exactly when
// per-step `tensor_allocs` collapses to O(1) without moving peak RSS.
//
// The hooks share the profiler's enable switch, cost model and per-thread
// table: disabled (default) is one relaxed load and a branch; enabled bumps
// single-writer cells of the current stage (Profiler::Totals(Stage) reads
// them back).

#ifndef WIDEN_OBS_MEMPROF_H_
#define WIDEN_OBS_MEMPROF_H_

#include <cstdint>

#include "obs/profiler.h"

namespace widen::obs {

/// A tensor data buffer of `bytes` was sized for a fresh tensor (pool reuse
/// in an InferenceScope still counts — it is an allocation the arena plan
/// must account for, even when the pool elides the malloc).
inline void MemProfRecordTensorAlloc(int64_t bytes) {
  if (!ProfilerEnabled()) return;
  using internal_prof::CellAdd;
  internal_prof::StageCell& cell = internal_prof::CurrentStageCell();
  CellAdd(cell.tensor_allocs, 1);
  CellAdd(cell.tensor_bytes, bytes);
}

/// A gradient buffer of `bytes` was lazily sized by EnsureGrad().
inline void MemProfRecordGradAlloc(int64_t bytes) {
  if (!ProfilerEnabled()) return;
  using internal_prof::CellAdd;
  internal_prof::StageCell& cell = internal_prof::CurrentStageCell();
  CellAdd(cell.grad_allocs, 1);
  CellAdd(cell.grad_bytes, bytes);
}

/// One node (result + parents + backward closure) was attached to the tape.
inline void MemProfRecordTapeNode() {
  if (!ProfilerEnabled()) return;
  internal_prof::CellAdd(internal_prof::CurrentStageCell().tape_nodes, 1);
}

/// Peak resident set size from the OS (VmHWM on Linux, getrusage fallback);
/// 0 when unavailable.
int64_t ReadPeakRssBytes();
/// Current resident set size (VmRSS on Linux); 0 when unavailable.
int64_t ReadCurrentRssBytes();

}  // namespace widen::obs

#endif  // WIDEN_OBS_MEMPROF_H_
