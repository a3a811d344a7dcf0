// Serving-path latency/throughput harness for src/serve/.
//
//   ./build/bench/serving_bench [out.json]        # default BENCH_serving.json
//
// Measures InferenceSession::Embed end to end from a params-only checkpoint
// (no trained cache), so every node starts COLD — the first sweep over the
// graph prices the inductive encode path, the following sweeps price the
// embedding store. For each batch size in {1, 8, 32} the harness
// records per-request latency (p50/p99) and throughput (requests/s and
// nodes/s) in both states and writes one JSON record at the repo root.
//
// WIDEN_BENCH_FULL=1 grows the graph and the number of warm sweeps; the
// default profile finishes in seconds on one core.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "datasets/synthetic.h"
#include "serve/inference_session.h"
#include "tensor/simd/simd.h"
#include "util/timer.h"

namespace widen {
namespace {

struct PhaseResult {
  std::string cache;  // "cold" | "warm"
  int64_t requests = 0;
  int64_t nodes = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double qps = 0.0;
  double nodes_per_sec = 0.0;
};

PhaseResult Summarize(const std::string& cache,
                      const DurationStats& latencies_us, int64_t batch_size,
                      double total_seconds) {
  PhaseResult r;
  r.cache = cache;
  r.requests = static_cast<int64_t>(latencies_us.count());
  r.nodes = r.requests * batch_size;
  r.mean_us = latencies_us.Mean();
  r.p50_us = latencies_us.Percentile(0.50);
  r.p99_us = latencies_us.Percentile(0.99);
  if (total_seconds > 0.0) {
    r.qps = static_cast<double>(r.requests) / total_seconds;
    r.nodes_per_sec = static_cast<double>(r.nodes) / total_seconds;
  }
  return r;
}

// One sweep over every node in batches of `batch_size`; appends per-request
// latency in microseconds to `latencies`.
void Sweep(serve::InferenceSession& session, int64_t batch_size,
           DurationStats& latencies) {
  using Clock = std::chrono::steady_clock;
  const int64_t n = session.num_nodes();
  std::vector<graph::NodeId> batch;
  for (int64_t start = 0; start < n; start += batch_size) {
    batch.clear();
    const int64_t end = std::min(n, start + batch_size);
    for (int64_t v = start; v < end; ++v) {
      batch.push_back(static_cast<graph::NodeId>(v));
    }
    if (static_cast<int64_t>(batch.size()) < batch_size) break;  // keep B fixed
    const Clock::time_point t0 = Clock::now();
    auto rows = session.Embed(batch);
    const Clock::time_point t1 = Clock::now();
    WIDEN_CHECK(rows.ok()) << rows.status().ToString();
    latencies.Add(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

void WriteJson(const std::string& path, int64_t num_nodes,
               const core::WidenConfig& config,
               const std::vector<std::pair<int64_t, std::vector<PhaseResult>>>&
                   by_batch) {
  bench::BenchReport report("serving", bench::FullMode());
  report.SetConfig("nodes", static_cast<double>(num_nodes));
  report.SetConfig("embedding_dim", static_cast<double>(config.embedding_dim));
  report.SetConfig("simd_isa",
                   tensor::simd::IsaName(tensor::simd::ActiveIsa()));
  for (const auto& [batch_size, phases] : by_batch) {
    for (const PhaseResult& r : phases) {
      const std::string prefix =
          "b" + std::to_string(batch_size) + "_" + r.cache + "_";
      report.AddMetric(prefix + "p50_us", r.p50_us, "us", "lower");
      report.AddMetric(prefix + "p99_us", r.p99_us, "us", "lower");
      report.AddMetric(prefix + "mean_us", r.mean_us, "us", "lower");
      report.AddMetric(prefix + "qps", r.qps, "req/s", "higher");
      report.AddMetric(prefix + "nodes_per_sec", r.nodes_per_sec, "nodes/s",
                       "higher");
    }
  }
  WIDEN_CHECK_OK(report.Write(path));
}

int Run(const std::string& out_path) {
  const bool full = bench::FullMode();
  const int64_t docs = full ? 6000 : 1200;
  const int64_t tags = full ? 1500 : 300;
  const int warm_sweeps = full ? 5 : 3;

  datasets::SyntheticGraphSpec spec;
  spec.name = "serving_bench";
  spec.node_types = {{"doc", docs, true}, {"tag", tags, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.5, 0.9},
                     {"doc-doc", "doc", "doc", 2.0, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.seed = 13;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  WIDEN_CHECK(graph.ok()) << graph.status().ToString();

  core::WidenConfig config;
  config.embedding_dim = 16;
  config.num_wide_neighbors = 6;
  config.num_deep_neighbors = 4;
  config.num_deep_walks = 2;
  config.eval_samples = 2;
  config.num_threads = 1;
  config.seed = 7;

  // A params-only checkpoint (no trained cache): the session sees every node
  // cold, which is exactly what the first sweep should price.
  const std::string ckpt = "serving_bench.wdnt";
  {
    auto model = core::WidenModel::Create(&*graph, config);
    WIDEN_CHECK(model.ok()) << model.status().ToString();
    WIDEN_CHECK_OK(core::SaveWidenModel(**model, ckpt));
  }

  using Clock = std::chrono::steady_clock;
  std::vector<std::pair<int64_t, std::vector<PhaseResult>>> by_batch;
  for (int64_t batch_size : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    serve::SessionOptions options;
    options.store_capacity = graph->num_nodes();  // no evictions in-bench
    auto session_or =
        serve::InferenceSession::Load(ckpt, &*graph, config, options);
    WIDEN_CHECK(session_or.ok()) << session_or.status().ToString();
    serve::InferenceSession& session = **session_or;

    DurationStats cold;
    const Clock::time_point cold0 = Clock::now();
    Sweep(session, batch_size, cold);
    const double cold_s =
        std::chrono::duration<double>(Clock::now() - cold0).count();
    WIDEN_CHECK(session.stats().cold_encodes > 0);

    DurationStats warm;
    const Clock::time_point warm0 = Clock::now();
    for (int s = 0; s < warm_sweeps; ++s) {
      Sweep(session, batch_size, warm);
    }
    const double warm_s =
        std::chrono::duration<double>(Clock::now() - warm0).count();
    WIDEN_CHECK(session.stats().store_hits > 0);

    std::vector<PhaseResult> phases;
    phases.push_back(Summarize("cold", cold, batch_size, cold_s));
    phases.push_back(Summarize("warm", warm, batch_size, warm_s));
    std::printf(
        "batch=%-3lld cold p50 %9.1f us  p99 %9.1f us  %8.0f nodes/s | "
        "warm p50 %7.1f us  p99 %7.1f us  %9.0f nodes/s\n",
        static_cast<long long>(batch_size), phases[0].p50_us, phases[0].p99_us,
        phases[0].nodes_per_sec, phases[1].p50_us, phases[1].p99_us,
        phases[1].nodes_per_sec);
    by_batch.emplace_back(batch_size, std::move(phases));
  }

  WriteJson(out_path, graph->num_nodes(), config, by_batch);
  std::printf("wrote %s\n", out_path.c_str());
  std::remove(ckpt.c_str());
  return 0;
}

}  // namespace
}  // namespace widen

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_serving.json";
  return widen::Run(out);
}
