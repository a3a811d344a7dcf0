// train: WidenModel training on the ACM-schema graph (2,048 nodes, 240
// training targets) with the paper-default config, sampling through a
// ShardedGraphView over a checksummed shard store written during set-up.
//
// Untraced run: set-up kSetups times (graph, shard write, checksummed open,
// model create; the median is setup_s), then one TrainUntil call of 1.5
// epochs per requested second. op_p50_ms / op_p95_ms are the median (the
// paper's s/epoch) and the nearest-rank p80 epoch; capacity_per_s is node
// visits per second over the whole call, which also covers Algorithm 3's
// one-time neighbour sampling and the final cache refresh, the steps that
// read the shard store.
// Traced run: the same training on two models side by side, one epoch per
// TrainUntil call: one untraced, one whose sampling goes through a counting
// GraphView decorator, with the op profiler on; plus a replay of the encoder
// entry points with the trained weights.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "datasets/acm.h"
#include "obs/profiler.h"
#include "spans.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "train/metrics.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = widen::core;
namespace graph = widen::graph;
namespace storage = widen::storage;

// 3 classes, chance ~0.33. Trained for nine epochs (36 Adam steps), a few
// seeds in sixty ended near chance (lowest seen: 0.298); the floor sits
// below that: it catches a collapse, not a small loss of quality.
constexpr double kMicroF1Floor = 0.25;
constexpr graph::NodeId kReplayNodes = 48;

// GraphView decorator that counts and times neighbour reads (the storage
// layer's hot call during sampling). Single-threaded, like the view it wraps.
class CountingView final : public graph::GraphView {
 public:
  explicit CountingView(const graph::GraphView* inner) : inner_(inner) {}

  const graph::GraphSchema& schema() const override { return inner_->schema(); }
  int64_t num_nodes() const override { return inner_->num_nodes(); }
  graph::NodeTypeId node_type(graph::NodeId v) const override {
    return inner_->node_type(v);
  }
  int64_t degree(graph::NodeId v) const override { return inner_->degree(v); }
  graph::Csr::NeighborSpan neighbors(graph::NodeId v) const override {
    const Clock::time_point t0 = Clock::now();
    graph::Csr::NeighborSpan span = inner_->neighbors(v);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
               .count();
    ++calls_;
    return span;
  }
  int64_t feature_dim() const override { return inner_->feature_dim(); }
  const float* feature_row(graph::NodeId v) const override {
    return inner_->feature_row(v);
  }

  int64_t calls() const { return calls_; }
  int64_t ns() const { return ns_; }

 private:
  const graph::GraphView* inner_;
  mutable int64_t calls_ = 0;
  mutable int64_t ns_ = 0;
};

struct TrainStack {
  widen::datasets::Dataset data;
  std::string dir;
  std::unique_ptr<storage::ShardedGraph> store;
  std::unique_ptr<storage::ShardedGraphView> view;
  std::unique_ptr<core::WidenModel> model;
  double open_s = 0.0;

  TrainStack() = default;
  TrainStack(const TrainStack&) = delete;
  TrainStack& operator=(const TrainStack&) = delete;
  ~TrainStack() {
    model.reset();
    view.reset();
    store.reset();
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<TrainStack> BuildTrainStack(const RunArgs& args) {
  auto stack = std::make_unique<TrainStack>();
  widen::datasets::DatasetOptions options;
  options.scale = 1.0;  // 1,200 papers + 800 authors + 48 subjects
  options.seed = args.seed;
  auto data = widen::datasets::MakeAcm(options);
  WIDEN_CHECK(data.ok()) << data.status().ToString();
  stack->data = std::move(data).value();
  stack->dir = args.out_dir + "/shards-" + std::to_string(::getpid());
  storage::WriteShardsOptions shard_options;
  shard_options.num_shards = 4;
  auto written = storage::WriteShards(stack->data.graph, stack->dir, shard_options);
  WIDEN_CHECK(written.ok()) << written.status().ToString();
  const Clock::time_point t0 = Clock::now();
  auto store = storage::ShardedGraph::Open(stack->dir);  // checksums verified
  stack->open_s = SecondsBetween(t0, Clock::now());
  WIDEN_CHECK(store.ok()) << store.status().ToString();
  stack->store = std::make_unique<storage::ShardedGraph>(std::move(store).value());
  stack->view = std::make_unique<storage::ShardedGraphView>(*stack->store);
  auto model = core::WidenModel::Create(&stack->data.graph, PaperConfig());
  WIDEN_CHECK(model.ok()) << model.status().ToString();
  stack->model = std::move(model).value();
  stack->model->SetSamplingView(stack->view.get());
  return stack;
}

// TrainUntil calls on one model, with each epoch's log and end time.
struct Training {
  std::vector<core::WidenEpochLog> logs;
  std::vector<Clock::time_point> epoch_end;
  std::vector<Clock::time_point> call_start;
  std::vector<Clock::time_point> call_end;

  Clock::time_point start() const { return call_start.front(); }
  Clock::time_point end() const { return call_end.back(); }
  std::vector<double> EpochSeconds() const {
    std::vector<double> seconds;
    for (const core::WidenEpochLog& log : logs) seconds.push_back(log.seconds);
    return seconds;
  }
};

// Trains `model` until its epoch counter reaches `target_epoch`.
void Train(core::WidenModel& model, const TrainStack& stack,
           int64_t target_epoch, Training& t) {
  t.call_start.push_back(Clock::now());
  auto report = model.TrainUntil(
      target_epoch, stack.data.split.train,
      [&t](const core::WidenEpochLog& log) {
        t.logs.push_back(log);
        t.epoch_end.push_back(Clock::now());
      });
  t.call_end.push_back(Clock::now());
  WIDEN_CHECK(report.ok()) << report.status().ToString();
}

double TestMicroF1(core::WidenModel& model, const TrainStack& stack) {
  const std::vector<graph::NodeId>& test = stack.data.split.test;
  std::vector<int32_t> gold;
  for (graph::NodeId v : test) gold.push_back(stack.data.graph.label(v));
  return widen::train::MicroF1(model.Predict(stack.data.graph, test), gold);
}

void CheckTraining(const Training& t, double f1, RunResult* result) {
  int64_t bad = 0;
  for (const core::WidenEpochLog& log : t.logs) {
    bad += std::isfinite(log.mean_loss) ? 0 : 1;
  }
  result->attempted += static_cast<int64_t>(t.logs.size()) + 1;
  result->failed += bad + (f1 >= kMicroF1Floor ? 0 : 1);
  result->Check(bad == 0, "non-finite training loss");
  result->Check(f1 >= kMicroF1Floor, "test micro-F1 below the floor");
  for (size_t e = 0; e < t.logs.size(); ++e) {
    const core::WidenEpochLog& log = t.logs[e];
    Note("epoch %zu: %.3f s loss %.4f wide %.2f deep %.2f drops %lld/%lld", e + 1,
         log.seconds, log.mean_loss, log.mean_wide_size, log.mean_deep_size,
         static_cast<long long>(log.wide_drops),
         static_cast<long long>(log.deep_drops));
  }
  Note("trained %zu epochs in %zu calls: loss %.4f -> %.4f, median epoch "
       "%.3f s, test micro-F1 %.4f (floor %.2f)",
       t.logs.size(), t.call_start.size(), t.logs.front().mean_loss,
       t.logs.back().mean_loss, Percentile(t.EpochSeconds(), 0.5), f1,
       kMicroF1Floor);
}

void TracedLayers(const RunArgs& args, TrainStack& stack, int64_t epochs,
                  RunResult* result) {
  RunResult& r = *result;
  SpanLog spans;
  r.Set("storage.open_s", stack.open_s);

  // Traced: a second model, same seed and graph, sampling through the
  // counting decorator, with the op profiler recording its kernels. The two
  // models train side by side one epoch per call, in alternating order
  // (untraced first on odd epochs, traced first on even ones), so warm-up
  // and drift in the host's speed fall on both alike.
  CountingView counting(stack.view.get());
  auto created = core::WidenModel::Create(&stack.data.graph, PaperConfig());
  WIDEN_CHECK(created.ok());
  core::WidenModel& model = **created;
  model.SetSamplingView(&counting);
  Training untraced;
  Training traced;
  widen::obs::Profiler& profiler = widen::obs::Profiler::Get();
  ProfileKernels(
      [&] {
        for (int64_t e = 1; e <= epochs; ++e) {
          if (e % 2 == 1) {
            profiler.Stop();
            Train(*stack.model, stack, e, untraced);
            profiler.Start();
          }
          Train(model, stack, e, traced);
          if (e % 2 == 0) {
            profiler.Stop();
            Train(*stack.model, stack, e, untraced);
            profiler.Start();
          }
        }
      },
      static_cast<double>(stack.data.graph.num_nodes() * epochs), r);
  for (size_t e = 0; e < traced.logs.size(); ++e) {
    const uint64_t call =
        spans.Add("train.call", 0, traced.call_start[e], traced.call_end[e]);
    const Clock::time_point end = traced.epoch_end[e];
    spans.Add("train.epoch", call,
              end - SecondsToDuration(traced.logs[e].seconds), end);
  }
  const double f1 = TestMicroF1(model, stack);
  CheckTraining(traced, f1, result);
  // The decorator presents identical spans, so training must not change.
  r.Check(traced.logs.back().mean_loss == untraced.logs.back().mean_loss,
          "training through the counting view diverged");

  // Median over epochs of the traced / untraced time of the same epoch.
  std::vector<double> ratios;
  for (size_t e = 0; e < traced.logs.size(); ++e) {
    ratios.push_back(traced.logs[e].seconds / untraced.logs[e].seconds);
  }
  r.Set("obs.trace_overhead_frac", Percentile(ratios, 0.5) - 1.0);
  r.Set("storage.neighbors_calls", static_cast<double>(counting.calls()));
  r.Set("storage.neighbors_ns_mean",
        counting.calls() > 0 ? static_cast<double>(counting.ns()) /
                                   static_cast<double>(counting.calls())
                             : 0.0);
  double wide_drops = 0.0;
  double deep_drops = 0.0;
  for (const core::WidenEpochLog& log : traced.logs) {
    wide_drops += static_cast<double>(log.wide_drops);
    deep_drops += static_cast<double>(log.deep_drops);
  }
  r.Set("train.mean_wide_size", traced.logs.back().mean_wide_size);
  r.Set("train.mean_deep_size", traced.logs.back().mean_deep_size);
  r.Set("train.wide_drops", wide_drops);
  r.Set("train.deep_drops", deep_drops);
  r.Set("train.micro_f1", f1);

  // Encoder entry points with the trained weights, sampling through the
  // shard store.
  const std::string ckpt =
      args.out_dir + "/train-" + std::to_string(::getpid()) + ".wdnt";
  WIDEN_CHECK_OK(core::SaveWidenModel(model, ckpt));
  auto weights = core::LoadServingWeights(ckpt);
  std::remove(ckpt.c_str());
  WIDEN_CHECK(weights.ok());
  std::vector<graph::NodeId> nodes;
  for (graph::NodeId v = 0; v < kReplayNodes; ++v) nodes.push_back(v);
  ReplayEncoder(*stack.view, weights->params, PaperConfig(), nodes, spans, r);

  const std::string path =
      args.out_dir + "/trace-train-seed" + std::to_string(args.seed) + ".json";
  if (spans.WriteJson(path, 20000).ok()) Note("spans written to %s", path.c_str());
}

}  // namespace

RunResult RunTrain(const RunArgs& args) {
  RunResult result;
  const int64_t epochs = std::max<int64_t>(3, std::lround(1.5 * args.seconds));
  std::vector<double> setups;
  std::unique_ptr<TrainStack> stack;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = BuildTrainStack(args);
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  Note("set-up: %.3f s median of %zu (shard store opened with checksums in "
       "%.4f s)",
       Percentile(setups, 0.5), setups.size(), stack->open_s);
  if (args.trace) {
    TracedLayers(args, *stack, epochs, &result);
  } else {
    result.Set("setup_s", Percentile(setups, 0.5));
    Training t;
    Train(*stack->model, *stack, epochs, t);
    CheckTraining(t, TestMicroF1(*stack->model, *stack), &result);
    const std::vector<double> epoch_s = t.EpochSeconds();
    result.Set("op_p50_ms", 1e3 * Percentile(epoch_s, 0.5));
    // Eighteen epochs hold no p95 with samples beyond it (it would be the
    // slowest epoch alone); nearest-rank p80, the fourth-slowest, is not.
    result.Set("op_p95_ms", 1e3 * Percentile(epoch_s, 0.8));
    result.Set("capacity_per_s",
               static_cast<double>(stack->data.graph.num_nodes() * epochs) /
                   SecondsBetween(t.start(), t.end()));
  }
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace perfbench
