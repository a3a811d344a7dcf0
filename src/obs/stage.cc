#include "obs/stage.h"

#include "obs/profiler.h"

namespace widen::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

// The one process epoch of every obs stamp.
SteadyClock::time_point Epoch() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return epoch;
}

// Pins the epoch during static initialization, so no clock reading taken
// later in the process (ToMonotonicNanos) can predate it.
[[maybe_unused]] const SteadyClock::time_point g_pinned_epoch = Epoch();

// Innermost live profiler-sink scope on this thread, for self-time
// accounting.
thread_local StageScope* t_profiled_scope = nullptr;

// Histogram sinks resolve on a stage's first recorded scope, so a metric
// appears in the registry only once its stage has run.
std::atomic<Histogram*> g_stage_histograms[kNumStages];

Histogram* StageHistogram(Stage stage) {
  std::atomic<Histogram*>& slot = g_stage_histograms[static_cast<int>(stage)];
  Histogram* hist = slot.load(std::memory_order_acquire);
  if (hist == nullptr) {
    const StageInfo& info = GetStageInfo(stage);
    hist = MetricsRegistry::Get().GetHistogram(info.histogram,
                                               info.histogram_help);
    slot.store(hist, std::memory_order_release);
  }
  return hist;
}

}  // namespace

int64_t ToMonotonicNanos(SteadyClock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - Epoch())
      .count();
}

int64_t MonotonicNanos() { return ToMonotonicNanos(SteadyClock::now()); }

int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

void StageScope::Begin(int64_t start_ns) {
  start_ns_ = start_ns;
  if (sinks_ & kProfileSink) {
    Stage& current = internal_prof::CurrentStageRef();
    prev_stage_ = current;
    current = stage_;
    parent_ = t_profiled_scope;
    t_profiled_scope = this;
  }
}

void StageScope::Finish() {
  const int64_t end_ns = MonotonicNanos();
  const StageInfo& info = GetStageInfo(stage_);
  if (sinks_ & kTraceSink) {
    // Both ends floor to the microsecond axis, so a stamp taken inside the
    // scope on MonotonicMicros() lies inside the event.
    const int64_t start_us = start_ns_ / 1000;
    internal_trace::AppendEvent(
        {info.name, info.trace_category, start_us, end_ns / 1000 - start_us});
  }
  if (sinks_ & kProfileSink) {
    const int64_t elapsed = end_ns - start_ns_;
    internal_prof::CellAdd(
        internal_prof::GetThreadTable()
            .stages[static_cast<int>(stage_)]
            .wall_ns,
        elapsed - child_ns_);
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    t_profiled_scope = parent_;
    internal_prof::CurrentStageRef() = prev_stage_;
  }
  if (sinks_ & kHistogramSink) {
    StageHistogram(stage_)->Record(static_cast<double>(end_ns - start_ns_) /
                                   1e3);
  }
}

}  // namespace widen::obs
