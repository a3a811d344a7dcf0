#include "serve/graph_delta.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace widen::serve {

graph::NodeId GraphDelta::AddNode(graph::NodeTypeId type,
                                  std::vector<float> features) {
  const graph::NodeId id =
      static_cast<graph::NodeId>(first_new_id_ + num_new_nodes());
  node_types_.push_back(type);
  features_.push_back(std::move(features));
  return id;
}

void GraphDelta::AddEdge(graph::NodeId u, graph::NodeId v,
                         graph::EdgeTypeId type) {
  edges_.push_back(Edge{u, v, type});
}

DeltaGraphView::DeltaGraphView(const graph::HeteroGraph* base) : base_(base) {
  WIDEN_CHECK(base != nullptr);
  WIDEN_CHECK(base->features().defined()) << "base graph has no features";
}

graph::NodeTypeId DeltaGraphView::node_type(graph::NodeId v) const {
  const int64_t base_n = base_->num_nodes();
  if (v < base_n) return base_->node_type(v);
  WIDEN_DCHECK(v < num_nodes());
  return added_types_[static_cast<size_t>(v - base_n)];
}

int64_t DeltaGraphView::degree(graph::NodeId v) const {
  auto it = overlay_adj_.find(v);
  if (it != overlay_adj_.end()) {
    return static_cast<int64_t>(it->second.neighbors.size());
  }
  if (v < base_->num_nodes()) return base_->degree(v);
  WIDEN_DCHECK(v < num_nodes());
  return 0;  // added node that never received an edge
}

graph::Csr::NeighborSpan DeltaGraphView::neighbors(graph::NodeId v) const {
  auto it = overlay_adj_.find(v);
  if (it != overlay_adj_.end()) {
    const MergedAdjacency& adj = it->second;
    return graph::Csr::NeighborSpan{
        adj.neighbors.data(), adj.edge_types.data(),
        static_cast<int64_t>(adj.neighbors.size())};
  }
  if (v < base_->num_nodes()) return base_->neighbors(v);
  WIDEN_DCHECK(v < num_nodes());
  return graph::Csr::NeighborSpan{nullptr, nullptr, 0};
}

const float* DeltaGraphView::feature_row(graph::NodeId v) const {
  const int64_t base_n = base_->num_nodes();
  if (v < base_n) return base_->features().data() + v * feature_dim();
  WIDEN_DCHECK(v < num_nodes());
  return added_features_.data() + (v - base_n) * feature_dim();
}

StatusOr<std::vector<graph::NodeId>> DeltaGraphView::Apply(
    const GraphDelta& delta) {
  const graph::GraphSchema& schema = base_->schema();
  // ---- Validate everything up front; reject without mutating. ----
  if (delta.first_new_id() != num_nodes()) {
    return Status::FailedPrecondition(
        StrCat("delta was built against a snapshot with ",
               delta.first_new_id(), " nodes, view has ", num_nodes()));
  }
  for (size_t i = 0; i < delta.node_types_.size(); ++i) {
    const graph::NodeTypeId t = delta.node_types_[i];
    if (t < 0 || t >= schema.num_node_types()) {
      return Status::InvalidArgument(
          StrCat("new node ", delta.first_new_id() + static_cast<int64_t>(i),
                 " has unknown node type ", t));
    }
    if (static_cast<int64_t>(delta.features_[i].size()) != feature_dim()) {
      return Status::InvalidArgument(
          StrCat("new node ", delta.first_new_id() + static_cast<int64_t>(i),
                 " has ", delta.features_[i].size(), " features, graph has ",
                 feature_dim()));
    }
  }
  const int64_t nodes_after = num_nodes() + delta.num_new_nodes();
  auto type_after = [&](graph::NodeId v) -> graph::NodeTypeId {
    if (v < num_nodes()) return node_type(v);
    return delta.node_types_[static_cast<size_t>(v - num_nodes())];
  };
  for (const GraphDelta::Edge& e : delta.edges_) {
    if (e.u < 0 || e.u >= nodes_after || e.v < 0 || e.v >= nodes_after) {
      return Status::OutOfRange(
          StrCat("edge (", e.u, ", ", e.v, ") references an unknown node"));
    }
    if (e.u == e.v) {
      return Status::InvalidArgument(
          StrCat("self-loop on node ", e.u, " not allowed"));
    }
    if (e.type < 0 || e.type >= schema.num_edge_types()) {
      return Status::InvalidArgument(
          StrCat("edge (", e.u, ", ", e.v, ") has unknown edge type ",
                 e.type));
    }
    if (!schema.EdgeTypeCompatible(e.type, type_after(e.u), type_after(e.v))) {
      return Status::InvalidArgument(StrCat(
          "edge type '", schema.edge_type_name(e.type),
          "' cannot connect node types '",
          schema.node_type_name(type_after(e.u)), "' and '",
          schema.node_type_name(type_after(e.v)), "'"));
    }
  }

  // ---- Apply. ----
  std::vector<graph::NodeId> touched;
  for (size_t i = 0; i < delta.node_types_.size(); ++i) {
    touched.push_back(
        static_cast<graph::NodeId>(delta.first_new_id() +
                                   static_cast<int64_t>(i)));
    added_types_.push_back(delta.node_types_[i]);
    added_features_.insert(added_features_.end(), delta.features_[i].begin(),
                           delta.features_[i].end());
  }
  // Group the new half-edges per endpoint, then rebuild each touched node's
  // merged list once.
  std::unordered_map<graph::NodeId, std::vector<graph::HalfEdge>> additions;
  for (const GraphDelta::Edge& e : delta.edges_) {
    additions[e.u].push_back(graph::HalfEdge{e.v, e.type});
    additions[e.v].push_back(graph::HalfEdge{e.u, e.type});
  }
  for (auto& [v, halves] : additions) {
    MergedAdjacency& adj = overlay_adj_[v];
    if (adj.neighbors.empty() && v < base_->num_nodes()) {
      // First touch of a base node: seed with its CSR list.
      graph::Csr::NeighborSpan span = base_->neighbors(v);
      adj.neighbors.assign(span.neighbors, span.neighbors + span.size);
      adj.edge_types.assign(span.edge_types, span.edge_types + span.size);
    }
    std::vector<graph::HalfEdge> merged;
    merged.reserve(adj.neighbors.size() + halves.size());
    for (size_t i = 0; i < adj.neighbors.size(); ++i) {
      merged.push_back(graph::HalfEdge{adj.neighbors[i], adj.edge_types[i]});
    }
    merged.insert(merged.end(), halves.begin(), halves.end());
    std::sort(merged.begin(), merged.end(),
              [](const graph::HalfEdge& a, const graph::HalfEdge& b) {
                return a.neighbor != b.neighbor ? a.neighbor < b.neighbor
                                                : a.edge_type < b.edge_type;
              });
    adj.neighbors.resize(merged.size());
    adj.edge_types.resize(merged.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      adj.neighbors[i] = merged[i].neighbor;
      adj.edge_types[i] = merged[i].edge_type;
    }
    if (v < delta.first_new_id()) touched.push_back(v);
  }
  num_added_edges_ += delta.num_new_edges();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

std::vector<graph::NodeId> ReadSetRecorder::TakeReadSet() {
  std::sort(reads_.begin(), reads_.end());
  std::vector<graph::NodeId> read_set(
      reads_.begin(), std::unique(reads_.begin(), reads_.end()));
  reads_.clear();
  return read_set;
}

}  // namespace widen::serve
