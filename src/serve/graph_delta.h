// Post-training graph growth for serving (the paper's inductive promise,
// §2: unseen nodes are embedded by the trained parameters).
//
// A GraphDelta is a validated batch of new nodes (with raw features) and new
// undirected edges. DeltaGraphView overlays any number of applied deltas on
// an immutable base HeteroGraph WITHOUT rebuilding its CSR: only nodes whose
// adjacency actually changed get a merged neighbor list, kept sorted by
// (neighbor, edge_type) exactly like the CSR, so sampling over the overlay
// draws the same random numbers — and produces the same bits — as a fully
// materialized graph with the same contents (graph/graph_view.h).

#ifndef WIDEN_SERVE_GRAPH_DELTA_H_
#define WIDEN_SERVE_GRAPH_DELTA_H_

#include <unordered_map>
#include <vector>

#include "graph/graph_view.h"
#include "graph/hetero_graph.h"
#include "util/status.h"

namespace widen::serve {

/// A batch of additions against a graph snapshot with `first_new_id` nodes.
/// Ids are assigned densely from `first_new_id`, matching the ids the nodes
/// receive once the delta is applied — so edges within the batch can
/// reference nodes added by the same batch.
class GraphDelta {
 public:
  explicit GraphDelta(int64_t first_new_id) : first_new_id_(first_new_id) {}

  /// Adds a node of `type` with its raw feature row; returns its id.
  graph::NodeId AddNode(graph::NodeTypeId type, std::vector<float> features);

  /// Adds an undirected edge. Endpoints may be base nodes or nodes added by
  /// this delta; validation happens at Apply time.
  void AddEdge(graph::NodeId u, graph::NodeId v, graph::EdgeTypeId type);

  int64_t first_new_id() const { return first_new_id_; }
  int64_t num_new_nodes() const {
    return static_cast<int64_t>(node_types_.size());
  }
  int64_t num_new_edges() const {
    return static_cast<int64_t>(edges_.size());
  }

 private:
  friend class DeltaGraphView;

  struct Edge {
    graph::NodeId u;
    graph::NodeId v;
    graph::EdgeTypeId type;
  };

  int64_t first_new_id_;
  std::vector<graph::NodeTypeId> node_types_;
  std::vector<std::vector<float>> features_;
  std::vector<Edge> edges_;
};

/// GraphView over base + applied deltas. Single-writer (Apply), multi-reader
/// (the GraphView accessors); the caller serializes Apply against readers —
/// serve/inference_session.cc holds a shared_mutex around it.
class DeltaGraphView final : public graph::GraphView {
 public:
  /// `base` must outlive the view and carry features.
  explicit DeltaGraphView(const graph::HeteroGraph* base);

  /// Validates the whole delta first (schema compatibility, id ranges,
  /// feature width, no self-loops) and applies it only if every record is
  /// valid — a rejected delta leaves the view untouched. Returns the sorted
  /// ids whose adjacency or existence changed: every new node plus every
  /// pre-existing endpoint of a new edge. A stored row is stale exactly when
  /// its read set (ReadSetRecorder) holds one of them.
  StatusOr<std::vector<graph::NodeId>> Apply(const GraphDelta& delta);

  // GraphView interface.
  const graph::GraphSchema& schema() const override {
    return base_->schema();
  }
  int64_t num_nodes() const override {
    return base_->num_nodes() + static_cast<int64_t>(added_types_.size());
  }
  graph::NodeTypeId node_type(graph::NodeId v) const override;
  int64_t degree(graph::NodeId v) const override;
  graph::Csr::NeighborSpan neighbors(graph::NodeId v) const override;
  int64_t feature_dim() const override { return base_->feature_dim(); }
  const float* feature_row(graph::NodeId v) const override;

  const graph::HeteroGraph& base() const { return *base_; }
  int64_t num_added_nodes() const {
    return static_cast<int64_t>(added_types_.size());
  }
  int64_t num_added_edges() const { return num_added_edges_; }

 private:
  /// Fully merged adjacency of one touched node, sorted by
  /// (neighbor, edge_type) — the CSR invariant.
  struct MergedAdjacency {
    std::vector<graph::NodeId> neighbors;
    std::vector<graph::EdgeTypeId> edge_types;
  };

  const graph::HeteroGraph* base_;
  std::vector<graph::NodeTypeId> added_types_;
  std::vector<float> added_features_;  // row-major [num_added, feature_dim]
  std::unordered_map<graph::NodeId, MergedAdjacency> overlay_adj_;
  int64_t num_added_edges_ = 0;
};

/// GraphView decorator that forwards every call unchanged and records each
/// node whose adjacency is read (neighbors() or degree()). The session
/// wraps every cold encode in one; the result is that row's read set.
/// Features and node types of existing nodes never change, so those reads
/// are not recorded. The cold encode never reads num_nodes(). Unlike other
/// views, a recorder serves one thread: give each encode its own.
class ReadSetRecorder final : public graph::GraphView {
 public:
  /// `view` must outlive the recorder.
  explicit ReadSetRecorder(const graph::GraphView* view) : view_(view) {}

  const graph::GraphSchema& schema() const override {
    return view_->schema();
  }
  int64_t num_nodes() const override { return view_->num_nodes(); }
  graph::NodeTypeId node_type(graph::NodeId v) const override {
    return view_->node_type(v);
  }
  int64_t degree(graph::NodeId v) const override {
    reads_.push_back(v);
    return view_->degree(v);
  }
  graph::Csr::NeighborSpan neighbors(graph::NodeId v) const override {
    reads_.push_back(v);
    return view_->neighbors(v);
  }
  int64_t feature_dim() const override { return view_->feature_dim(); }
  const float* feature_row(graph::NodeId v) const override {
    return view_->feature_row(v);
  }

  /// The sorted, distinct ids read since construction or the last call, in
  /// an exactly sized vector; the record starts over.
  std::vector<graph::NodeId> TakeReadSet();

 private:
  const graph::GraphView* view_;
  mutable std::vector<graph::NodeId> reads_;  // in call order, repeats kept
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_GRAPH_DELTA_H_
