// Query-able embedding service over a trained WIDEN checkpoint.
//
// An InferenceSession turns a .wdnt file (core/checkpoint.h) into a frozen,
// thread-safe embedding/prediction server:
//
//   * Base nodes keep the representations Algorithm 3 trained for them —
//     the checkpoint's embedding store is served verbatim, bitwise equal to
//     WidenModel::EmbedNodes on the training graph.
//   * The graph can keep growing after training: Ingest() applies GraphDelta
//     batches onto a DeltaGraphView overlay (no CSR rebuild), and new nodes
//     are embedded on demand through the shared encode path
//     (core/encoder.h) with tape-free, allocation-reusing forwards
//     (tensor/inference.h).
//   * Computed rows are cached in a bounded LRU keyed by node, each with
//     the read set of its cold encode: the nodes whose adjacency it read.
//     Each ingest bumps the version and drops exactly the rows whose read
//     set holds a node the delta touched (serve/embedding_store.h).
//
// Concurrency: Embed/Predict take a shared lock, Ingest an exclusive one,
// and the LRU store has its own mutex — many readers proceed in parallel
// and are serialized only against ingests.

#ifndef WIDEN_SERVE_INFERENCE_SESSION_H_
#define WIDEN_SERVE_INFERENCE_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/encoder.h"
#include "core/widen_config.h"
#include "serve/embedding_store.h"
#include "serve/graph_delta.h"
#include "util/threadpool.h"

namespace widen::serve {

struct SessionOptions {
  /// Maximum number of rows in the computed-embedding LRU store (0 disables
  /// caching; every non-base query recomputes).
  int64_t store_capacity = 4096;
  /// Worker threads for fanning cold-node encodes of one Embed call out in
  /// parallel (1 = serial). Results are bitwise independent of this value —
  /// every cold node draws from its own RNG stream.
  int64_t num_threads = 1;
};

class InferenceSession {
 public:
  /// Loads serving weights from `checkpoint_path` (written by SaveWidenModel
  /// or SaveTrainingState). `base_graph` must be the training graph (or any
  /// graph matching the checkpoint's embedding store, if present) and must
  /// outlive the session; `config` must carry the sampling hyperparameters
  /// training used — seed included — for bit-identical cold encodes.
  static StatusOr<std::unique_ptr<InferenceSession>> Load(
      const std::string& checkpoint_path, const graph::HeteroGraph* base_graph,
      const core::WidenConfig& config, const SessionOptions& options = {});

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Per-call composition of one Embed: how many rows came from the warm LRU
  /// store and from fresh encodes. The deltas behind the cumulative Stats
  /// counters, exposed so request tracing can attribute a batch's store
  /// behavior to the requests it served.
  struct EmbedReport {
    int64_t store_hits = 0;
    int64_t cold_encodes = 0;
  };

  /// Embeds `nodes` (base or delta-added): [nodes.size(), d]. Safe to call
  /// from many threads concurrently. `report`, when non-null, receives this
  /// call's row composition.
  StatusOr<tensor::Tensor> Embed(const std::vector<graph::NodeId>& nodes);
  StatusOr<tensor::Tensor> Embed(const std::vector<graph::NodeId>& nodes,
                                 EmbedReport* report);

  /// Class predictions through the trained classifier head.
  StatusOr<std::vector<int32_t>> Predict(
      const std::vector<graph::NodeId>& nodes);

  /// Logits = embeddings x C. Row-independent, so batching requests together
  /// cannot change any row's bits (serve/request_batcher.cc relies on this).
  tensor::Tensor ClassifyRows(const tensor::Tensor& embeddings) const;

  /// A delta builder positioned at the current node count.
  GraphDelta NewDelta() const;

  /// Applies `delta`, bumps the graph version, and drops the cached rows
  /// whose read set holds a node the delta touched. Returns the new version.
  StatusOr<uint64_t> Ingest(const GraphDelta& delta);

  uint64_t graph_version() const { return version_.load(); }
  int64_t num_nodes() const;
  int64_t embedding_dim() const { return weights_.params.embedding_dim(); }
  int32_t num_classes() const { return weights_.params.num_classes(); }
  const core::WidenConfig& config() const { return config_; }

  struct Stats {
    int64_t base_hits = 0;      // rows served from the trained rep table
    int64_t store_hits = 0;     // rows served warm from the LRU store
    int64_t cold_encodes = 0;   // rows computed by EncodeColdMean
    int64_t ingests = 0;
    EmbeddingStore::Stats store;
  };
  Stats stats() const;

 private:
  InferenceSession(core::ServingWeights weights,
                   const graph::HeteroGraph* base_graph,
                   const core::WidenConfig& config,
                   const SessionOptions& options);

  core::ServingWeights weights_;
  std::vector<bool> base_valid_;  // cache_valid unpacked; empty if no store
  // The frozen training-time rows: served verbatim on a hit, and the stored
  // representations cold encodes read — the same RepSource the model
  // encodes with over a cache whose base rows are valid and whose new rows
  // are not, which makes session cold encodes bitwise-equal to EmbedNodes.
  core::RepSource base_reps_;
  core::WidenConfig config_;

  mutable std::shared_mutex graph_mu_;  // guards view_ (Ingest is writer)
  DeltaGraphView view_;
  std::atomic<uint64_t> version_{0};

  mutable std::mutex store_mu_;  // guards store_
  EmbeddingStore store_;

  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1

  std::atomic<int64_t> base_hits_{0};
  std::atomic<int64_t> store_hits_{0};
  std::atomic<int64_t> cold_encodes_{0};
  std::atomic<int64_t> ingests_{0};
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_INFERENCE_SESSION_H_
