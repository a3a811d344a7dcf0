// Repo benchmark binary: one workload per run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out_dir D]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run of
// the same workload that produces the per-layer metrics. The last stdout
// line is the JSON result; every other stdout line starts with "#".

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "obs/memprof.h"
#include "tensor/simd/simd.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_p50_ms", "ms"},
      {"op_p95_ms", "ms"},
      {"capacity_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.health_rtt_us_p50", "us"},
      {"net.overload_rejections", "count"},
      {"batcher.linger_us_p50", "us"},
      {"batcher.linger_us_p99", "us"},
      {"batcher.batch_nodes_mean", "nodes"},
      {"batcher.expired", "count"},
      {"session.embed_us_p50", "us"},
      {"session.embed_us_p99", "us"},
      {"session.rows", "count"},
      {"session.cold_frac", "frac"},
      {"session.store_hit_frac", "frac"},
      {"session.ingest_us_p50", "us"},
      {"session.ingest_us_p99", "us"},
      {"session.invalidated_per_ingest", "rows"},
      {"encoder.cold_mean_us_p50", "us"},
      {"sampling.target_state_us_p50", "us"},
      {"encoder.encode_target_us_p50", "us"},
      {"kernels.matmul_calls_per_node", "count"},
      {"kernels.matmul_flops_per_node", "flop"},
      {"kernels.bytes_per_node", "B"},
      {"kernels.matmul_gflops", "GFLOP/s"},
      {"storage.open_s", "s"},
      {"storage.neighbors_calls", "count"},
      {"storage.neighbors_ns_mean", "ns"},
      {"train.mean_wide_size", "nodes"},
      {"train.mean_deep_size", "nodes"},
      {"train.wide_drops", "count"},
      {"train.deep_drops", "count"},
      {"train.micro_f1", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"trace.unattributed_frac", "frac"},
      {"gen.lag_p99_ms", "ms"},
      {"gen.inflight_max", "count"},
      {"client.read_p50_ms", "ms"},
      {"client.read_p99_ms", "ms"},
      {"client.ingest_p50_ms", "ms"},
      {"client.ingest_p99_ms", "ms"},
      {"client.failed_frac", "frac"},
      {"client.max_rps_at_slo", "1/s"},
      {"client.samples", "count"},
  };
  return specs;
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  Note("check failed: %s", what.c_str());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  return static_cast<double>(widen::obs::ReadPeakRssBytes()) /
         (1024.0 * 1024.0);
}

void Note(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_warm|serve_cold|"
               "serve_ingest|train --seed N --seconds S --trace 0|1 "
               "[--out_dir DIR]\n");
  return 2;
}

void PrintResult(const RunResult& result, bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  bool correct = result.correct;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    double value = it != result.metrics.end() ? it->second : 0.0;
    if (!trace && (it == result.metrics.end() || !(value > 0.0))) {
      Note("check failed: end-to-end metric %s missing or not positive",
           spec.name);
      correct = false;
    }
    if (!std::isfinite(value)) {
      Note("check failed: metric %s is not finite", spec.name);
      correct = false;
      value = -1.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(1, result.attempted)),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold: large blocks (graph features, checkpoints) go
  // back to the OS when freed. glibc's default sliding threshold keeps them
  // on the heap after the first free, so peak RSS would depend on the order
  // in which the repeated set-ups happen to free and reallocate.
  ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  perfbench::RunArgs args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return perfbench::Usage();
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  const bool serve = perfbench::IsServeWorkload(args.workload);
  if ((!serve && args.workload != "train") || !have_trace ||
      !(args.seconds >= 1.0)) {
    return perfbench::Usage();
  }
  perfbench::Note("workload=%s seed=%llu seconds=%g trace=%d",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), args.seconds,
                  args.trace ? 1 : 0);
  const widen::core::WidenConfig config = perfbench::PaperConfig();
  perfbench::Note(
      "env: nproc=%ld simd=%s; config: d=%lld N_w=%lld N_d=%lld phi=%lld "
      "eval_samples=%lld kernel_threads=%lld session_threads=1 seed=%llu",
      ::sysconf(_SC_NPROCESSORS_ONLN),
      widen::tensor::simd::IsaName(widen::tensor::simd::ActiveIsa()),
      static_cast<long long>(config.embedding_dim),
      static_cast<long long>(config.num_wide_neighbors),
      static_cast<long long>(config.num_deep_neighbors),
      static_cast<long long>(config.num_deep_walks),
      static_cast<long long>(config.eval_samples),
      static_cast<long long>(config.num_threads),
      static_cast<unsigned long long>(config.seed));
  const perfbench::RunResult result =
      serve ? perfbench::RunServe(args) : perfbench::RunTrain(args);
  perfbench::PrintResult(result, args.trace);
  return 0;
}
