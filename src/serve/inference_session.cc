#include "serve/inference_session.h"

#include <cstring>
#include <utility>

#include "core/encoder.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "tensor/inference.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace widen::serve {
namespace {

namespace T = widen::tensor;

// Serving metrics, resolved once (the Embed latency histogram is the embed
// stage's sink, obs/stage.h). The hit/miss counters mirror the session's
// internal atomics so the store's behaviour shows up in --metrics_out dumps.
struct ServeMetrics {
  obs::Histogram* embed_batch_nodes;
  obs::Counter* base_hits;
  obs::Counter* store_hits;
  obs::Counter* store_misses;
  obs::Counter* ingests;
  obs::Counter* invalidations;
  obs::Histogram* invalidated_rows;
  obs::Gauge* store_resident_bytes;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = {
        obs::MetricsRegistry::Get().GetHistogram(
            "widen_serve_embed_batch_nodes",
            "Nodes requested per Embed call"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_base_hits_total",
            "Embed rows served from the checkpoint's frozen base reps"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_store_hits_total",
            "Embed rows served from the embedding store"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_store_misses_total",
            "Embed rows that required a cold encode"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_ingests_total", "Graph deltas ingested"),
        obs::MetricsRegistry::Get().GetCounter(
            "widen_serve_store_invalidations_total",
            "Embedding store rows dropped across all ingests (rows whose "
            "read set held a touched node)"),
        obs::MetricsRegistry::Get().GetHistogram(
            "widen_serve_invalidated_nodes",
            "Embedding store rows dropped per ingest (rows whose read set "
            "held a touched node)"),
        obs::MetricsRegistry::Get().GetGauge(
            "widen_serve_store_resident_bytes",
            "Approximate heap bytes held by the embedding store "
            "(rows, read sets and indexing overhead)"),
    };
    return m;
  }
};

}  // namespace

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Load(
    const std::string& checkpoint_path, const graph::HeteroGraph* base_graph,
    const core::WidenConfig& config, const SessionOptions& options) {
  if (base_graph == nullptr) {
    return Status::InvalidArgument("base_graph must not be null");
  }
  if (!base_graph->features().defined()) {
    return Status::InvalidArgument("base graph has no node features");
  }
  WIDEN_RETURN_IF_ERROR(config.Validate());
  WIDEN_ASSIGN_OR_RETURN(core::ServingWeights weights,
                         core::LoadServingWeights(checkpoint_path));
  if (weights.params.feature_dim() != base_graph->feature_dim()) {
    return Status::InvalidArgument(
        StrCat("checkpoint expects ", weights.params.feature_dim(),
               "-dim features, graph has ", base_graph->feature_dim()));
  }
  if (weights.params.embedding_dim() != config.embedding_dim) {
    return Status::InvalidArgument(
        StrCat("checkpoint embedding_dim ", weights.params.embedding_dim(),
               " != config embedding_dim ", config.embedding_dim));
  }
  const graph::GraphSchema& schema = base_graph->schema();
  if (weights.params.edges->edge_table().rows() != schema.num_edge_types() ||
      weights.params.edges->self_loop_table().rows() !=
          schema.num_node_types()) {
    return Status::InvalidArgument(
        StrCat("checkpoint was trained on a schema with ",
               weights.params.edges->edge_table().rows(), " edge types / ",
               weights.params.edges->self_loop_table().rows(),
               " node types; graph schema has ", schema.num_edge_types(),
               " / ", schema.num_node_types()));
  }
  if (weights.cache_reps.defined() &&
      weights.cache_reps.rows() != base_graph->num_nodes()) {
    return Status::InvalidArgument(
        StrCat("checkpoint embedding store covers ", weights.cache_reps.rows(),
               " nodes, base graph has ", base_graph->num_nodes()));
  }
  if (options.store_capacity < 0) {
    return Status::InvalidArgument("store_capacity must be >= 0");
  }
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(weights), base_graph, config, options));
}

InferenceSession::InferenceSession(core::ServingWeights weights,
                                   const graph::HeteroGraph* base_graph,
                                   const core::WidenConfig& config,
                                   const SessionOptions& options)
    : weights_(std::move(weights)),
      base_reps_(weights_.cache_reps.defined() ? weights_.cache_reps.data()
                                               : nullptr,
                 &base_valid_, weights_.params.embedding_dim()),
      config_(config),
      view_(base_graph),
      store_(options.store_capacity, weights_.params.embedding_dim()),
      pool_(options.num_threads > 1
                ? std::make_unique<ThreadPool>(
                      static_cast<size_t>(options.num_threads))
                : nullptr) {
  if (weights_.cache_valid.defined()) {
    const int64_t n = weights_.cache_valid.rows();
    base_valid_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      base_valid_[static_cast<size_t>(i)] =
          weights_.cache_valid.data()[i] != 0.0f;
    }
  }
}

int64_t InferenceSession::num_nodes() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return view_.num_nodes();
}

GraphDelta InferenceSession::NewDelta() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return GraphDelta(view_.num_nodes());
}

StatusOr<tensor::Tensor> InferenceSession::Embed(
    const std::vector<graph::NodeId>& nodes) {
  return Embed(nodes, nullptr);
}

StatusOr<tensor::Tensor> InferenceSession::Embed(
    const std::vector<graph::NodeId>& nodes, EmbedReport* report) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  // Covers the whole call; cold encodes open their own stage below
  // (including on pool threads, which inherit no stage).
  obs::StageScope stage(obs::Stage::kEmbed);
  metrics.embed_batch_nodes->Record(static_cast<double>(nodes.size()));
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  const int64_t n = view_.num_nodes();
  for (graph::NodeId v : nodes) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(
          StrCat("node ", v, " out of range [0, ", n, ")"));
    }
  }
  const int64_t d = weights_.params.embedding_dim();
  T::Tensor out(T::Shape::Matrix(static_cast<int64_t>(nodes.size()), d));

  std::vector<size_t> cold;  // request positions needing a fresh encode
  {
    int64_t base_hits = 0;
    int64_t store_hits = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const graph::NodeId v = nodes[i];
      float* row = out.mutable_data() + static_cast<int64_t>(i) * d;
      if (const float* base = base_reps_.Lookup(v)) {
        std::memcpy(row, base, static_cast<size_t>(d) * sizeof(float));
        ++base_hits;
        continue;
      }
      bool hit;
      {
        std::lock_guard<std::mutex> store_lock(store_mu_);
        hit = store_.Lookup(v, row);
      }
      if (hit) {
        ++store_hits;
      } else {
        cold.push_back(i);
      }
    }
    base_hits_ += base_hits;
    store_hits_ += store_hits;
    metrics.base_hits->Add(base_hits);
    metrics.store_hits->Add(store_hits);
    if (report != nullptr) report->store_hits = store_hits;
  }

  if (!cold.empty()) {
    metrics.store_misses->Add(static_cast<int64_t>(cold.size()));
    // Rows are disjoint and every cold node draws from its own RNG stream
    // (EvalSeedForNode), so fan-out order cannot change any bit.
    std::vector<std::vector<graph::NodeId>> read_sets(cold.size());
    auto encode_one = [&](size_t k) {
      obs::StageScope cold_stage(obs::Stage::kColdEncode);
      T::InferenceScope inference;
      const graph::NodeId v = nodes[cold[k]];
      ReadSetRecorder recorder(&view_);
      T::Tensor mean = core::EncodeColdMean(recorder, weights_.params,
                                            config_, v, &base_reps_);
      std::memcpy(out.mutable_data() + static_cast<int64_t>(cold[k]) * d,
                  mean.data(), static_cast<size_t>(d) * sizeof(float));
      read_sets[k] = recorder.TakeReadSet();
    };
    if (pool_ != nullptr && cold.size() > 1) {
      ParallelFor(*pool_, 0, cold.size(), encode_one);
    } else {
      for (size_t k = 0; k < cold.size(); ++k) encode_one(k);
    }
    cold_encodes_ += static_cast<int64_t>(cold.size());
    if (report != nullptr) {
      report->cold_encodes = static_cast<int64_t>(cold.size());
    }
    std::lock_guard<std::mutex> store_lock(store_mu_);
    for (size_t k = 0; k < cold.size(); ++k) {
      store_.Insert(nodes[cold[k]],
                    out.data() + static_cast<int64_t>(cold[k]) * d,
                    std::move(read_sets[k]));
    }
    metrics.store_resident_bytes->Set(
        static_cast<double>(store_.ResidentBytes()));
  }
  return out;
}

tensor::Tensor InferenceSession::ClassifyRows(
    const tensor::Tensor& embeddings) const {
  T::InferenceScope inference;
  return T::MatMul(embeddings, weights_.params.classifier);
}

StatusOr<std::vector<int32_t>> InferenceSession::Predict(
    const std::vector<graph::NodeId>& nodes) {
  WIDEN_ASSIGN_OR_RETURN(T::Tensor embeddings, Embed(nodes));
  return T::ArgMaxRows(ClassifyRows(embeddings));
}

StatusOr<uint64_t> InferenceSession::Ingest(const GraphDelta& delta) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  obs::StageScope stage(obs::Stage::kIngest);
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  WIDEN_ASSIGN_OR_RETURN(const std::vector<graph::NodeId> touched,
                         view_.Apply(delta));
  // Only a row whose encode read a touched node's adjacency can re-encode
  // differently; every other row survives (serve/embedding_store.h).
  int64_t dropped;
  {
    std::lock_guard<std::mutex> store_lock(store_mu_);
    dropped = store_.Invalidate(touched);
    metrics.store_resident_bytes->Set(
        static_cast<double>(store_.ResidentBytes()));
  }
  const uint64_t new_version = ++version_;
  ++ingests_;
  metrics.ingests->Increment();
  metrics.invalidations->Add(dropped);
  metrics.invalidated_rows->Record(static_cast<double>(dropped));
  return new_version;
}

InferenceSession::Stats InferenceSession::stats() const {
  Stats s;
  s.base_hits = base_hits_.load();
  s.store_hits = store_hits_.load();
  s.cold_encodes = cold_encodes_.load();
  s.ingests = ingests_.load();
  {
    std::lock_guard<std::mutex> store_lock(store_mu_);
    s.store = store_.stats();
  }
  return s;
}

}  // namespace widen::serve
