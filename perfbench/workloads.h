// The benchmark's workloads (README.md explains each one and its metrics).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/encoder.h"
#include "core/widen_config.h"
#include "spans.h"

namespace perfbench {

/// The paper-default WidenConfig (d=64, N_w=20, N_d=20, Φ=4,
/// eval_samples=3) pinned to one kernel thread. Every workload uses it.
widen::core::WidenConfig PaperConfig();

/// serve_warm, serve_cold, serve_ingest.
bool IsServeWorkload(const std::string& name);
RunResult RunServe(const RunArgs& args);

/// train.
RunResult RunTrain(const RunArgs& args);

/// Replays `nodes` into core::EncodeColdMean, then into its parts
/// (SampleTargetState, EncodeTarget) on the same per-node RNG stream, one
/// span per call; sets the encoder.* and sampling.* metrics.
void ReplayEncoder(const widen::graph::GraphView& view,
                   const widen::core::EncoderParams& params,
                   const widen::core::WidenConfig& config,
                   const std::vector<widen::graph::NodeId>& nodes,
                   SpanLog& spans, RunResult& result);

/// Runs `work` under the op profiler and sets the kernels.* metrics per
/// node. FLOPs and bytes are computed from tensor shapes, not measured.
void ProfileKernels(const std::function<void()>& work, double nodes,
                    RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
