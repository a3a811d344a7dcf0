#include "core/encoder.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "sampling/neighbor_sampler.h"
#include "sampling/random_walk.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace widen::core {
namespace {

namespace T = widen::tensor;

// Scaled dot-product attention with a single query row (Eq. 3 / Eq. 5).
// Returns {context [1, d_v], attention weights as floats}.
struct SingleQueryAttention {
  T::Tensor context;
  std::vector<float> weights;
};

SingleQueryAttention AttendSingleQuery(const T::Tensor& query_row,
                                       const T::Tensor& keys,
                                       const T::Tensor& values,
                                       int64_t model_dim) {
  T::Tensor scores = T::Scale(
      T::MatMul(query_row, T::Transpose(keys)),
      1.0f / std::sqrt(static_cast<float>(model_dim)));
  T::Tensor attention = T::SoftmaxRows(scores);
  SingleQueryAttention out;
  out.context = T::MatMul(attention, values);
  out.weights.assign(attention.data(), attention.data() + attention.size());
  return out;
}

Status ShapeError(const char* label, const T::Tensor& got,
                  const T::Shape& want) {
  return Status::InvalidArgument(StrCat("parameter '", label, "' has shape ",
                                        got.shape().ToString(), ", expected ",
                                        want.ToString()));
}

}  // namespace

EncoderParams EncoderParams::CreateInitialized(const EncoderDims& dims,
                                               Rng& rng) {
  const int64_t d = dims.embedding_dim;
  EncoderParams p;
  p.g_node =
      T::XavierUniform(T::Shape::Matrix(dims.feature_dim, d), rng, "G_node");
  p.edges = std::make_unique<EdgeEmbeddings>(dims.num_edge_types,
                                             dims.num_node_types, d, rng);
  auto attn = [&](const char* name) {
    return T::XavierUniform(T::Shape::Matrix(d, d), rng, name);
  };
  p.wq_wide = attn("Wq_wide");
  p.wk_wide = attn("Wk_wide");
  p.wv_wide = attn("Wv_wide");
  p.wq_deep = attn("Wq_deep");
  p.wk_deep = attn("Wk_deep");
  p.wv_deep = attn("Wv_deep");
  p.wq_deep2 = attn("Wq_deep2");
  p.wk_deep2 = attn("Wk_deep2");
  p.wv_deep2 = attn("Wv_deep2");
  p.fuse_w = T::XavierUniform(T::Shape::Matrix(2 * d, d), rng, "W_fuse");
  p.fuse_b = T::ZeroParam(T::Shape::Matrix(1, d), "b_fuse");
  p.classifier =
      T::XavierUniform(T::Shape::Matrix(d, dims.num_classes), rng, "C");
  return p;
}

const std::array<const char*, 15>& EncoderParams::CanonicalLabels() {
  static const std::array<const char*, 15> kLabels = {
      "G_node",   "G_edge",   "G_selfloop", "Wq_wide",  "Wk_wide",
      "Wv_wide",  "Wq_deep",  "Wk_deep",    "Wv_deep",  "Wq_deep2",
      "Wk_deep2", "Wv_deep2", "W_fuse",     "b_fuse",   "C"};
  return kLabels;
}

StatusOr<EncoderParams> EncoderParams::FromTensors(
    std::vector<tensor::Tensor> tensors) {
  if (tensors.size() != CanonicalLabels().size()) {
    return Status::InvalidArgument(StrCat("expected ",
                                          CanonicalLabels().size(),
                                          " parameter tensors, got ",
                                          tensors.size()));
  }
  for (const T::Tensor& t : tensors) {
    if (!t.defined() || t.shape().rank() != 2) {
      return Status::InvalidArgument("parameter tensors must be matrices");
    }
  }
  const int64_t d = tensors[0].cols();  // G_node is [d0, d]
  if (d <= 0) return Status::InvalidArgument("G_node has no columns");

  EncoderParams p;
  p.g_node = tensors[0];
  if (tensors[1].cols() != d) {
    return Status::InvalidArgument("G_edge embedding dim mismatch");
  }
  if (tensors[2].cols() != d) {
    return Status::InvalidArgument("G_selfloop embedding dim mismatch");
  }
  p.edges = std::make_unique<EdgeEmbeddings>(tensors[1], tensors[2]);
  const T::Shape square = T::Shape::Matrix(d, d);
  T::Tensor* attn[] = {&p.wq_wide,  &p.wk_wide,  &p.wv_wide,
                       &p.wq_deep,  &p.wk_deep,  &p.wv_deep,
                       &p.wq_deep2, &p.wk_deep2, &p.wv_deep2};
  for (size_t i = 0; i < 9; ++i) {
    T::Tensor& t = tensors[3 + i];
    if (t.shape() != square) {
      return ShapeError(CanonicalLabels()[3 + i], t, square);
    }
    *attn[i] = t;
  }
  if (tensors[12].shape() != T::Shape::Matrix(2 * d, d)) {
    return ShapeError("W_fuse", tensors[12], T::Shape::Matrix(2 * d, d));
  }
  p.fuse_w = tensors[12];
  if (tensors[13].shape() != T::Shape::Matrix(1, d)) {
    return ShapeError("b_fuse", tensors[13], T::Shape::Matrix(1, d));
  }
  p.fuse_b = tensors[13];
  if (tensors[14].rows() != d || tensors[14].cols() <= 0) {
    return Status::InvalidArgument("classifier shape mismatch");
  }
  p.classifier = tensors[14];
  return p;
}

std::vector<tensor::Tensor> EncoderParams::All() const {
  std::vector<T::Tensor> params = {g_node};
  for (const T::Tensor& p : edges->Parameters()) params.push_back(p);
  for (const T::Tensor& p :
       {wq_wide, wk_wide, wv_wide, wq_deep, wk_deep, wv_deep, wq_deep2,
        wk_deep2, wv_deep2, fuse_w, fuse_b, classifier}) {
    params.push_back(p);
  }
  return params;
}

TargetState SampleTargetState(const graph::GraphView& graph,
                              graph::NodeId node, const WidenConfig& config,
                              Rng& rng) {
  TargetState state;
  state.node = node;
  if (!config.disable_wide) {
    state.wide = sampling::SampleWideNeighbors(graph, node,
                                               config.num_wide_neighbors, rng);
  } else {
    state.wide.target = node;
  }
  if (!config.disable_deep) {
    state.deeps.reserve(static_cast<size_t>(config.num_deep_walks));
    for (int64_t phi = 0; phi < config.num_deep_walks; ++phi) {
      state.deeps.push_back(MakeDeepState(
          sampling::SampleDeepWalk(graph, node, config.num_deep_neighbors,
                                   rng)));
    }
  }
  return state;
}

tensor::Tensor ProjectNodes(const graph::GraphView& graph,
                            const tensor::Tensor& g_node,
                            const std::vector<graph::NodeId>& nodes) {
  const int64_t d0 = graph.feature_dim();
  WIDEN_CHECK_EQ(d0, g_node.rows())
      << "feature dimension mismatch between graphs";
  T::Tensor features(
      T::Shape::Matrix(static_cast<int64_t>(nodes.size()), d0));
  float* dst = features.mutable_data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(dst + static_cast<int64_t>(i) * d0,
                graph.feature_row(nodes[i]),
                static_cast<size_t>(d0) * sizeof(float));
  }
  return T::MatMul(features, g_node);
}

tensor::Tensor LookupReps(const graph::GraphView& graph,
                          const EncoderParams& params,
                          const std::vector<graph::NodeId>& nodes,
                          const RepSource* reps) {
  const int64_t d = params.embedding_dim();
  // Differentiable projection x G^node for every neighbor...
  T::Tensor projected = ProjectNodes(graph, params.g_node, nodes);
  if (reps == nullptr) return projected;
  // ...plus a constant residual that shifts each stored node's VALUE to its
  // multi-hop representation. Straight-through: values come from the store,
  // gradients still reach G^node through the projection term.
  T::Tensor residual(projected.shape());
  float* rp = residual.mutable_data();
  const float* pp = projected.data();
  bool any_cached = false;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const float* src = reps->Lookup(nodes[i]);
    if (src == nullptr) continue;
    any_cached = true;
    float* row = rp + static_cast<int64_t>(i) * d;
    const float* prow = pp + static_cast<int64_t>(i) * d;
    for (int64_t j = 0; j < d; ++j) row[j] = src[j] - prow[j];
  }
  if (!any_cached) return projected;
  return T::Add(projected, residual);
}

EncodeResult EncodeTarget(const graph::GraphView& graph,
                          const EncoderParams& params,
                          const WidenConfig& config, TargetState& state,
                          const RepSource* reps, bool keep_artifacts,
                          Rng& dropout_rng) {
  const int64_t d = params.embedding_dim();
  const graph::NodeTypeId target_type = graph.node_type(state.node);
  // Dropout only perturbs gradient-carrying (supervised) forwards; cache
  // refreshes and inference run clean. The tape itself is controlled by
  // NoGradScope at the call sites.
  const bool training = keep_artifacts && !T::NoGradScope::Active();
  T::Tensor target_embedding = ProjectNodes(graph, params.g_node,
                                            {state.node});

  EncodeResult result;

  // ---- Wide attentive message passing (Eq. 1 + Eq. 3) ----
  T::Tensor h_wide;
  if (!config.disable_wide) {
    T::Tensor neighbor_embeddings =
        state.wide.size() > 0
            ? LookupReps(graph, params, state.wide.nodes, reps)
            : T::Tensor(T::Shape::Matrix(0, d));
    T::Tensor packs = PackWide(target_embedding, neighbor_embeddings,
                               state.wide, target_type, *params.edges);
    T::Tensor query = T::SliceRows(packs, 0, 1);  // m_t°
    packs = T::Dropout(packs, config.dropout, dropout_rng, training);
    SingleQueryAttention attn = AttendSingleQuery(
        T::MatMul(query, params.wq_wide), T::MatMul(packs, params.wk_wide),
        T::MatMul(packs, params.wv_wide), d);
    h_wide = attn.context;
    if (keep_artifacts) result.wide_attention = std::move(attn.weights);
  } else {
    h_wide = T::Tensor(T::Shape::Matrix(1, d));  // zero contribution
  }

  // ---- Deep successive self-attention (Eq. 2 + Eq. 4-6) ----
  T::Tensor h_deep;
  if (!config.disable_deep) {
    std::vector<T::Tensor> deep_contexts;
    deep_contexts.reserve(state.deeps.size());
    for (DeepNeighborState& deep : state.deeps) {
      T::Tensor node_embeddings =
          deep.size() > 0 ? LookupReps(graph, params, deep.nodes, reps)
                          : T::Tensor(T::Shape::Matrix(0, d));
      T::Tensor raw_packs = PackDeep(target_embedding, node_embeddings, deep,
                                     target_type, *params.edges);
      T::Tensor packs =
          T::Dropout(raw_packs, config.dropout, dropout_rng, training);
      // Eq. (4): refine the pack sequence with a masked self-attention so
      // information flows from the walk tail toward the target only.
      T::Tensor refined;
      if (!config.disable_successive_attention) {
        T::Tensor scores = T::Scale(
            T::MatMul(T::MatMul(packs, params.wq_deep),
                      T::Transpose(T::MatMul(packs, params.wk_deep))),
            1.0f / std::sqrt(static_cast<float>(d)));
        T::Tensor attn_rows = T::MaskedSoftmaxRows(
            scores, T::CausalAttentionMask(packs.rows()));
        refined = T::MatMul(attn_rows, T::MatMul(packs, params.wv_deep));
      } else {
        refined = packs;
      }
      // Eq. (5): target pack queries the refined sequence; values come from
      // the raw packs (M▷ W_V▷'), exactly as printed.
      T::Tensor query = T::SliceRows(packs, 0, 1);  // m_t▷
      SingleQueryAttention attn = AttendSingleQuery(
          T::MatMul(query, params.wq_deep2),
          T::MatMul(refined, params.wk_deep2),
          T::MatMul(packs, params.wv_deep2), d);
      deep_contexts.push_back(attn.context);
      if (keep_artifacts) {
        result.deep_attention.push_back(std::move(attn.weights));
        // Relay edges (Eq. 8) must read the true pack values, not the
        // dropout-perturbed ones.
        result.deep_pack_values.push_back(raw_packs.DetachedCopy());
      }
    }
    // Average pooling over the Φ walks (Eq. 7).
    if (deep_contexts.size() == 1) {
      h_deep = deep_contexts[0];
    } else {
      h_deep = T::MeanRows(T::ConcatRows(deep_contexts));
    }
  } else {
    h_deep = T::Tensor(T::Shape::Matrix(1, d));
  }

  // ---- Fuse (Eq. 7) ----
  T::Tensor fused = T::ConcatCols({h_wide, h_deep});
  T::Tensor hidden =
      T::Relu(T::Add(T::MatMul(fused, params.fuse_w), params.fuse_b));
  result.embedding = T::RowL2Normalize(hidden);
  return result;
}

uint64_t EvalSeedForNode(uint64_t base_seed, graph::NodeId node) {
  return base_seed ^ 0xE7A1ULL ^
         (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(node) + 1));
}

tensor::Tensor EncodeColdMean(const graph::GraphView& graph,
                              const EncoderParams& params,
                              const WidenConfig& config, graph::NodeId node,
                              const RepSource* reps) {
  const int64_t samples = std::max<int64_t>(1, config.eval_samples);
  Rng eval_rng(EvalSeedForNode(config.seed, node));
  T::Tensor mean;
  for (int64_t s = 0; s < samples; ++s) {
    TargetState state = SampleTargetState(graph, node, config, eval_rng);
    EncodeResult result = EncodeTarget(graph, params, config, state, reps,
                                       /*keep_artifacts=*/false, eval_rng);
    mean = mean.defined() ? T::Add(mean, result.embedding)
                          : result.embedding;
  }
  return T::RowL2Normalize(
      T::Scale(mean, 1.0f / static_cast<float>(samples)));
}

}  // namespace widen::core
