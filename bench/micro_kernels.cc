// Google-benchmark microbenchmarks for the kernels behind Fig. 4's
// efficiency argument: message packaging, single-query attention, masked
// successive attention, sampling, and the dense/sparse matmuls they ride on.
//
// The dense-kernel benchmarks (BM_MatMul, BM_MatMulGrad, BM_SoftmaxRowsGrad)
// sweep the kernel thread count as their second argument; run
//
//   micro_kernels --widen_out BENCH_kernels.json \
//                 --benchmark_filter='BM_(MatMul|SoftmaxRows)'
//
// to regenerate the BENCH_kernels.json record at the repo root in the common
// schema of bench_json.h (per-iteration ns + items/s per benchmark, keyed by
// the google-benchmark name). All other --benchmark_* flags pass through.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_common.h"
#include "bench_json.h"
#include "core/message_pack.h"
#include "datasets/synthetic.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/random_walk.h"
#include "tensor/init.h"
#include "tensor/kernel_context.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"
#include "util/random.h"
#include "util/timer.h"

namespace widen {
namespace {

namespace T = widen::tensor;

T::Tensor RandomTensor(int64_t rows, int64_t cols, bool grad, Rng& rng) {
  T::Tensor t = T::NormalInit(T::Shape::Matrix(rows, cols), rng, 1.0f);
  t.set_requires_grad(grad);
  return t;
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  T::KernelContext::Get().SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  T::Tensor a = RandomTensor(n, n, false, rng);
  T::Tensor b = RandomTensor(n, n, false, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  T::KernelContext::Get().SetNumThreads(1);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{32, 64, 128, 256}, {1, 2, 4, 8}});

// The same forward pinned to the scalar reference table — the SIMD-vs-scalar
// pair behind the matmul_fwd_simd_speedup metric.
void BM_MatMulScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  const T::simd::Isa previous = T::simd::ForceIsa(T::simd::Isa::kScalar);
  Rng rng(1);
  T::Tensor a = RandomTensor(n, n, false, rng);
  T::Tensor b = RandomTensor(n, n, false, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  T::simd::ForceIsa(previous);
}
BENCHMARK(BM_MatMulScalar)->ArgsProduct({{64, 256}, {1}});

// Forward + full backward (dA and dB) of one square MatMul — roughly 2/3 of
// an epoch's dense-kernel time lives in the backward accumulations.
void BM_MatMulGrad(benchmark::State& state) {
  const int64_t n = state.range(0);
  T::KernelContext::Get().SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  T::Tensor a = RandomTensor(n, n, true, rng);
  T::Tensor b = RandomTensor(n, n, true, rng);
  for (auto _ : state) {
    T::Tensor loss = T::SumAll(T::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
    a.ZeroGrad();
    b.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 3 * n * n * n);
  T::KernelContext::Get().SetNumThreads(1);
}
BENCHMARK(BM_MatMulGrad)->ArgsProduct({{64, 128, 256}, {1, 2, 4, 8}});

void BM_SoftmaxRowsGrad(benchmark::State& state) {
  const int64_t rows = state.range(0), cols = 256;
  T::KernelContext::Get().SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(2);
  T::Tensor a = RandomTensor(rows, cols, true, rng);
  for (auto _ : state) {
    T::Tensor loss = T::SumSquares(T::SoftmaxRows(a));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
    a.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  T::KernelContext::Get().SetNumThreads(1);
}
BENCHMARK(BM_SoftmaxRowsGrad)->ArgsProduct({{1024}, {1, 2, 4, 8}});

void BM_AttentionSingleQuery(benchmark::State& state) {
  const int64_t packs = state.range(0), d = 64;
  Rng rng(2);
  T::Tensor m = RandomTensor(packs, d, true, rng);
  T::Tensor wq = RandomTensor(d, d, true, rng);
  T::Tensor wk = RandomTensor(d, d, true, rng);
  T::Tensor wv = RandomTensor(d, d, true, rng);
  for (auto _ : state) {
    T::Tensor q = T::MatMul(T::SliceRows(m, 0, 1), wq);
    T::Tensor scores =
        T::Scale(T::MatMul(q, T::Transpose(T::MatMul(m, wk))), 0.125f);
    T::Tensor out = T::MatMul(T::SoftmaxRows(scores), T::MatMul(m, wv));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionSingleQuery)->Arg(6)->Arg(11)->Arg(21);

void BM_SuccessiveMaskedAttention(benchmark::State& state) {
  const int64_t packs = state.range(0), d = 64;
  Rng rng(3);
  T::Tensor m = RandomTensor(packs, d, true, rng);
  T::Tensor wq = RandomTensor(d, d, true, rng);
  T::Tensor wk = RandomTensor(d, d, true, rng);
  T::Tensor wv = RandomTensor(d, d, true, rng);
  for (auto _ : state) {
    T::Tensor scores = T::Scale(
        T::MatMul(T::MatMul(m, wq), T::Transpose(T::MatMul(m, wk))), 0.125f);
    T::Tensor masked = T::Add(scores, T::CausalAttentionMask(packs));
    T::Tensor out = T::MatMul(T::SoftmaxRows(masked), T::MatMul(m, wv));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SuccessiveMaskedAttention)->Arg(6)->Arg(11)->Arg(21);

datasets::SyntheticGraphSpec BenchSpec() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "bench";
  spec.node_types = {{"doc", 2000, true}, {"tag", 300, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 4.0, 0.8},
                     {"doc-doc", "doc", "doc", 3.0, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = 32;
  return spec;
}

void BM_WideSampling(benchmark::State& state) {
  auto graph = datasets::GenerateSyntheticGraph(BenchSpec());
  WIDEN_CHECK(graph.ok());
  Rng rng(4);
  graph::NodeId v = 0;
  for (auto _ : state) {
    auto set = sampling::SampleWideNeighbors(
        *graph, v, state.range(0), rng);
    benchmark::DoNotOptimize(set.nodes.data());
    v = static_cast<graph::NodeId>((v + 1) % graph->num_nodes());
  }
}
BENCHMARK(BM_WideSampling)->Arg(5)->Arg(20);

void BM_DeepWalkSampling(benchmark::State& state) {
  auto graph = datasets::GenerateSyntheticGraph(BenchSpec());
  WIDEN_CHECK(graph.ok());
  Rng rng(5);
  graph::NodeId v = 0;
  for (auto _ : state) {
    auto walk = sampling::SampleDeepWalk(*graph, v, state.range(0), rng);
    benchmark::DoNotOptimize(walk.nodes.data());
    v = static_cast<graph::NodeId>((v + 1) % graph->num_nodes());
  }
}
BENCHMARK(BM_DeepWalkSampling)->Arg(5)->Arg(20);

void BM_PackWide(benchmark::State& state) {
  const int64_t neighbors = state.range(0), d = 64;
  Rng rng(6);
  core::EdgeEmbeddings tables(4, 3, d, rng);
  T::Tensor target = RandomTensor(1, d, true, rng);
  T::Tensor neighbor_embeddings = RandomTensor(neighbors, d, true, rng);
  sampling::WideNeighborSet wide;
  for (int64_t i = 0; i < neighbors; ++i) {
    wide.nodes.push_back(static_cast<graph::NodeId>(i));
    wide.edge_types.push_back(static_cast<graph::EdgeTypeId>(i % 4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::PackWide(target, neighbor_embeddings, wide, 0, tables).data());
  }
}
BENCHMARK(BM_PackWide)->Arg(5)->Arg(20);

void BM_SparseMatMul(benchmark::State& state) {
  const int64_t n = 2000, d = 64;
  Rng rng(7);
  std::vector<std::tuple<int64_t, int64_t, float>> triplets;
  for (int64_t i = 0; i < n * 8; ++i) {
    triplets.emplace_back(rng.UniformInt(n), rng.UniformInt(n), 0.1f);
  }
  T::SparseCsr a = T::SparseCsr::FromTriplets(n, n, triplets);
  T::Tensor x = RandomTensor(n, d, false, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::SparseMatMul(a, x).data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * d);
}
BENCHMARK(BM_SparseMatMul);

void BM_BackwardTape(benchmark::State& state) {
  // Cost of one WIDEN-style forward+backward for a single target.
  const int64_t d = 64, packs = 21;
  Rng rng(8);
  T::Tensor m = RandomTensor(packs, d, true, rng);
  T::Tensor wq = RandomTensor(d, d, true, rng);
  T::Tensor wk = RandomTensor(d, d, true, rng);
  T::Tensor wv = RandomTensor(d, d, true, rng);
  T::Tensor c = RandomTensor(d, 3, true, rng);
  for (auto _ : state) {
    T::Tensor q = T::MatMul(T::SliceRows(m, 0, 1), wq);
    T::Tensor scores =
        T::Scale(T::MatMul(q, T::Transpose(T::MatMul(m, wk))), 0.125f);
    T::Tensor h = T::MatMul(T::SoftmaxRows(scores), T::MatMul(m, wv));
    T::Tensor loss = T::SoftmaxCrossEntropy(T::MatMul(h, c), {1});
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_BackwardTape);

// Direct SIMD-vs-scalar timing of the MatMul forward (the acceptance metric
// for the dispatched kernels): best-of-`reps` wall time per table at n=256,
// single thread, identical operands. Recorded as matmul_fwd_simd_speedup
// alongside the raw per-table timings.
void MeasureMatMulSpeedup(bench::BenchReport* report) {
  constexpr int64_t kN = 256;
  constexpr int kReps = 20;
  Rng rng(1);
  T::Tensor a = RandomTensor(kN, kN, false, rng);
  T::Tensor b = RandomTensor(kN, kN, false, rng);
  auto best_seconds = [&](T::simd::Isa isa) {
    const T::simd::Isa previous = T::simd::ForceIsa(isa);
    double best = 0.0;
    benchmark::DoNotOptimize(T::MatMul(a, b).data());  // warm-up
    for (int r = 0; r < kReps; ++r) {
      StopWatch watch;
      benchmark::DoNotOptimize(T::MatMul(a, b).data());
      const double elapsed = watch.ElapsedSeconds();
      if (r == 0 || elapsed < best) best = elapsed;
    }
    T::simd::ForceIsa(previous);
    return best;
  };
  const double scalar_s = best_seconds(T::simd::Isa::kScalar);
  const double simd_s = best_seconds(T::simd::ActiveIsa());
  const double speedup = simd_s > 0.0 ? scalar_s / simd_s : 1.0;
  report->SetConfig("simd_isa", T::simd::IsaName(T::simd::ActiveIsa()));
  report->AddMetric("matmul_fwd_scalar_ns", scalar_s * 1e9, "ns", "lower");
  report->AddMetric("matmul_fwd_simd_ns", simd_s * 1e9, "ns", "lower");
  report->AddMetric("matmul_fwd_simd_speedup", speedup, "x", "higher");
  std::printf("matmul_fwd_simd_speedup (%s vs scalar, n=%lld): %.2fx\n",
              T::simd::IsaName(T::simd::ActiveIsa()),
              static_cast<long long>(kN), speedup);
}

// Mirrors every finished run into a BenchReport while still printing the
// normal console table. Per-iteration real time is the primary metric;
// benchmarks that call SetItemsProcessed also get a throughput row.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      report_->AddMetric(run.benchmark_name(), run.GetAdjustedRealTime(),
                         "ns", "lower");
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        report_->AddMetric(run.benchmark_name() + "/items_per_s",
                           it->second, "items/s", "higher");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace widen

int main(int argc, char** argv) {
  std::string widen_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--widen_out") == 0 && i + 1 < argc) {
      widen_out = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--widen_out=", 12) == 0) {
      widen_out = argv[i] + 12;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  widen::bench::BenchReport report("kernels", widen::bench::FullMode());
  widen::CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  widen::MeasureMatMulSpeedup(&report);
  benchmark::Shutdown();
  if (!widen_out.empty()) {
    const widen::Status written = report.Write(widen_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", widen_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", widen_out.c_str());
  }
  return 0;
}
