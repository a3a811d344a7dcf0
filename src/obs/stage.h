// One instrumentation primitive and one clock for src/obs/ (DESIGN.md §11).
//
// A Stage is a fixed enumerator. kStages gives each stage one name and lists
// the sinks it feeds:
//   - a Chrome trace event (TraceRecorder) in `trace_category`;
//   - a profiler stage (Profiler): tensor ops run inside the scope are
//     attributed to it, and the scope's SELF time (elapsed minus nested
//     profiler stages) is recorded;
//   - a microsecond histogram (MetricsRegistry) `histogram`, recorded for
//     one in `sample_every` scopes per thread.
// Giving a stage another sink is an edit to its one table row.
//
// StageScope is the RAII scope over a stage. It reads the clock once on
// entry and once on exit and feeds every enabled sink of its stage. A scope
// whose sinks are all off reads no clock and costs one relaxed load per sink
// the stage has.
//
// The clock: every stamp in src/obs/ — trace events, flight records, the
// serving RequestContext and profiler self time — is read from ONE
// steady-clock epoch (MonotonicNanos), so stamps compare across all of them.

#ifndef WIDEN_OBS_STAGE_H_
#define WIDEN_OBS_STAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace widen::obs {

/// Nanoseconds since the process epoch on the steady clock.
int64_t MonotonicNanos();
/// MonotonicNanos() / 1000: the microsecond axis of trace events, flight
/// records and RequestContext stamps.
int64_t MonotonicMicros();
/// A steady_clock reading on the MonotonicNanos axis, for callers that need
/// the time_point itself too (deadline checks) and read the clock once.
int64_t ToMonotonicNanos(std::chrono::steady_clock::time_point t);

enum class Stage : uint8_t {
  kOther = 0,  // profiler attribution outside every profiler stage
  kSampling,
  kForward,
  kBackward,
  kOptimizer,
  kColdEncode,
  kEmbed,
  kIngest,
  kRunBatch,
  kReload,
  kTrainEpoch,
  kSupervisedBatches,
  kRefreshSweep,
  kSampleTargetStates,
  kCkptSave,
  kCkptRestore,
  kBundleSave,
  kBundleLoad,
  kHaloFill,
  kDeepWalk,
};

/// One stage's name and sinks.
struct StageInfo {
  Stage stage;
  const char* name;            // trace event name and profiler row
  const char* trace_category;  // Chrome trace "cat"; nullptr: no trace event
  bool profile;                // profiler stage (op attribution, self time)
  const char* histogram;       // µs histogram name; nullptr: no histogram
  const char* histogram_help;
  uint32_t sample_every;       // histogram records 1 in N (power of two)
};

inline constexpr StageInfo kStages[] = {
    {Stage::kOther, "other", nullptr, true, nullptr, nullptr, 1},
    {Stage::kSampling, "sampling", nullptr, true, nullptr, nullptr, 1},
    {Stage::kForward, "forward", nullptr, true, nullptr, nullptr, 1},
    // Opened by Backward() itself, so tape closures land here wherever
    // Backward() is called from.
    {Stage::kBackward, "backward", nullptr, true, nullptr, nullptr, 1},
    {Stage::kOptimizer, "optimizer", nullptr, true, nullptr, nullptr, 1},
    // Per cold node, on whichever pool thread encodes it.
    {Stage::kColdEncode, "cold_encode", "serve", true, nullptr, nullptr, 1},
    {Stage::kEmbed, "embed", "serve", true, "widen_serve_embed_us",
     "Wall time per InferenceSession::Embed call (microseconds)", 1},
    {Stage::kIngest, "ingest", "serve", false, nullptr, nullptr, 1},
    // Starts at batch formation (RequestBatcher passes the formation stamp).
    {Stage::kRunBatch, "run_batch", "serve", false, nullptr, nullptr, 1},
    {Stage::kReload, "reload", "serve", false, nullptr, nullptr, 1},
    {Stage::kTrainEpoch, "train_epoch", "train", false, nullptr, nullptr, 1},
    {Stage::kSupervisedBatches, "supervised_batches", "train", false, nullptr,
     nullptr, 1},
    {Stage::kRefreshSweep, "refresh_sweep", "train", false, nullptr, nullptr,
     1},
    {Stage::kSampleTargetStates, "sample_target_states", "train", false,
     nullptr, nullptr, 1},
    {Stage::kCkptSave, "ckpt_save", "ckpt", false, "widen_ckpt_train_save_us",
     "Wall time per training-state checkpoint save (microseconds)", 1},
    {Stage::kCkptRestore, "ckpt_restore", "ckpt", false, nullptr, nullptr, 1},
    {Stage::kBundleSave, "bundle_save", nullptr, false, "widen_ckpt_save_us",
     "Wall time per bundle save (microseconds)", 1},
    {Stage::kBundleLoad, "bundle_load", nullptr, false, "widen_ckpt_load_us",
     "Wall time per bundle load (microseconds)", 1},
    // A miss fill and a walk each cost about one clock read, so only a
    // sample is timed; their counters stay exact.
    {Stage::kHaloFill, "halo_fill", nullptr, false,
     "widen_storage_halo_miss_fill_us",
     "Latency of halo cache miss fills (sampled 1/32)", 32},
    {Stage::kDeepWalk, "deep_walk", nullptr, false, "widen_sampling_walk_us",
     "Wall time per deep random walk (microseconds, 1-in-16 sampled)", 16},
};
inline constexpr int kNumStages = static_cast<int>(std::size(kStages));

constexpr bool StageTableIsConsistent() {
  for (int i = 0; i < kNumStages; ++i) {
    const StageInfo& s = kStages[i];
    if (static_cast<int>(s.stage) != i) return false;
    if (s.sample_every == 0 || (s.sample_every & (s.sample_every - 1)) != 0) {
      return false;
    }
    if ((s.histogram == nullptr) != (s.histogram_help == nullptr)) return false;
  }
  return true;
}
static_assert(StageTableIsConsistent(),
              "kStages rows must follow Stage order, with power-of-two "
              "sampling and a help string for every histogram");

inline const StageInfo& GetStageInfo(Stage stage) {
  return kStages[static_cast<int>(stage)];
}
inline const char* StageName(Stage stage) { return GetStageInfo(stage).name; }

namespace internal_prof {
extern std::atomic<bool> g_profiler_enabled;  // default: false
}  // namespace internal_prof

/// True while the profiler records (Profiler::Start/Stop flip it).
inline bool ProfilerEnabled() {
  return internal_prof::g_profiler_enabled.load(std::memory_order_relaxed);
}

namespace internal_stage {

// Per-thread 1-in-`every` sampler for a stage's histogram.
inline bool TakeSample(Stage stage, uint32_t every) {
  if (every == 1) return true;
  thread_local uint32_t ticks[kNumStages] = {};
  return (ticks[static_cast<int>(stage)]++ & (every - 1)) == 0;
}

}  // namespace internal_stage

/// RAII scope over one stage; see the file comment.
class StageScope {
 public:
  explicit StageScope(Stage stage)
      : stage_(stage), sinks_(EnabledSinks(stage)) {
    if (sinks_ != 0) Begin(MonotonicNanos());
  }
  /// Takes `start_ns`, a MonotonicNanos() stamp the caller has just read, as
  /// the entry stamp instead of reading the clock again.
  StageScope(Stage stage, int64_t start_ns)
      : stage_(stage), sinks_(EnabledSinks(stage)) {
    if (sinks_ != 0) Begin(start_ns);
  }
  ~StageScope() {
    if (sinks_ != 0) Finish();
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  static constexpr uint8_t kTraceSink = 1;
  static constexpr uint8_t kProfileSink = 2;
  static constexpr uint8_t kHistogramSink = 4;

  static uint8_t EnabledSinks(Stage stage) {
    const StageInfo& info = GetStageInfo(stage);
    uint8_t sinks = 0;
    if (info.trace_category != nullptr && TraceEnabled()) sinks |= kTraceSink;
    if (info.profile && ProfilerEnabled()) sinks |= kProfileSink;
    if (info.histogram != nullptr && MetricsEnabled() &&
        internal_stage::TakeSample(stage, info.sample_every)) {
      sinks |= kHistogramSink;
    }
    return sinks;
  }
  void Begin(int64_t start_ns);
  void Finish();

  const Stage stage_;
  const uint8_t sinks_;
  Stage prev_stage_ = Stage::kOther;  // profiler sink: restored on exit
  StageScope* parent_ = nullptr;      // profiler sink: enclosing scope
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;  // profiler sink: time inside nested scopes
};

}  // namespace widen::obs

#endif  // WIDEN_OBS_STAGE_H_
