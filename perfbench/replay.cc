// Replays of captured inputs into the encoder entry points, and kernel
// counts from the op profiler. Shared by the serving and training workloads.

#include <algorithm>

#include "obs/profiler.h"
#include "tensor/inference.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace core = widen::core;
namespace graph = widen::graph;
namespace obs = widen::obs;

void ReplayEncoder(const graph::GraphView& view,
                   const core::EncoderParams& params,
                   const core::WidenConfig& config,
                   const std::vector<graph::NodeId>& nodes, SpanLog& spans,
                   RunResult& result) {
  for (graph::NodeId v : nodes) {
    widen::tensor::InferenceScope inference;
    const Clock::time_point t0 = Clock::now();
    core::EncodeColdMean(view, params, config, v, nullptr);
    spans.Add("encoder.cold_mean", 0, t0, Clock::now());
    // The same work again in its parts, on EncodeColdMean's per-node RNG
    // stream, so each part makes exactly the draws it makes there.
    widen::Rng rng(core::EvalSeedForNode(config.seed, v));
    std::vector<Clock::time_point> marks = {Clock::now()};
    for (int64_t s = 0; s < config.eval_samples; ++s) {
      core::TargetState state = core::SampleTargetState(view, v, config, rng);
      marks.push_back(Clock::now());
      core::EncodeTarget(view, params, config, state, nullptr, false, rng);
      marks.push_back(Clock::now());
    }
    const uint64_t parent =
        spans.Add("encoder.cold_mean.parts", 0, marks.front(), marks.back());
    for (size_t i = 0; i + 2 < marks.size(); i += 2) {
      spans.Add("sampling.target_state", parent, marks[i], marks[i + 1]);
      spans.Add("encoder.encode_target", parent, marks[i + 1], marks[i + 2]);
    }
  }
  result.Set("encoder.cold_mean_us_p50",
             Percentile(spans.DurationsUs("encoder.cold_mean"), 0.5));
  result.Set("sampling.target_state_us_p50",
             Percentile(spans.DurationsUs("sampling.target_state"), 0.5));
  result.Set("encoder.encode_target_us_p50",
             Percentile(spans.DurationsUs("encoder.encode_target"), 0.5));
}

void ProfileKernels(const std::function<void()>& work, double nodes,
                    RunResult& result) {
  obs::Profiler& profiler = obs::Profiler::Get();
  profiler.Reset();
  profiler.Start();
  work();
  profiler.Stop();
  const obs::Profiler::OpTotals matmul = profiler.Totals(obs::ProfOp::kMatMul);
  int64_t bytes = 0;
  for (int op = 0; op < obs::kNumProfOps; ++op) {
    bytes += profiler.Totals(static_cast<obs::ProfOp>(op)).bytes;
  }
  profiler.Reset();
  nodes = std::max(1.0, nodes);
  result.Set("kernels.matmul_calls_per_node",
             static_cast<double>(matmul.calls) / nodes);
  result.Set("kernels.matmul_flops_per_node",
             static_cast<double>(matmul.flops) / nodes);
  result.Set("kernels.bytes_per_node", static_cast<double>(bytes) / nodes);
  result.Set("kernels.matmul_gflops",
             matmul.wall_ns > 0 ? static_cast<double>(matmul.flops) /
                                      static_cast<double>(matmul.wall_ns)
                                : 0.0);
}

}  // namespace perfbench
