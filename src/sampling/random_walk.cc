#include "sampling/random_walk.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "util/logging.h"

namespace widen::sampling {

DeepNeighborSequence SampleDeepWalk(const graph::GraphView& graph,
                                    graph::NodeId target, int64_t length,
                                    Rng& rng) {
  WIDEN_CHECK_GE(length, 0);
  WIDEN_METRIC_COUNTER(steps, "widen_sampling_walk_steps_total",
                       "Steps taken across all deep random walks");
  // Times 1 in 16 walks (obs/stage.h); the steps counter stays exact.
  obs::StageScope stage(obs::Stage::kDeepWalk);
  DeepNeighborSequence seq;
  seq.target = target;
  seq.nodes.reserve(static_cast<size_t>(length));
  seq.edge_types.reserve(static_cast<size_t>(length));
  graph::NodeId current = target;
  for (int64_t s = 0; s < length; ++s) {
    graph::Csr::NeighborSpan span = graph.neighbors(current);
    if (span.size == 0) break;
    const size_t pick =
        static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(span.size)));
    current = span.neighbors[pick];
    seq.nodes.push_back(current);
    seq.edge_types.push_back(span.edge_types[pick]);
  }
  steps->Add(static_cast<int64_t>(seq.nodes.size()));
  return seq;
}

std::vector<graph::NodeId> SampleNode2VecWalk(const graph::HeteroGraph& graph,
                                              graph::NodeId start,
                                              int64_t length, double p,
                                              double q, Rng& rng) {
  WIDEN_CHECK_GT(p, 0.0);
  WIDEN_CHECK_GT(q, 0.0);
  std::vector<graph::NodeId> walk;
  walk.reserve(static_cast<size_t>(length) + 1);
  walk.push_back(start);
  if (length == 0) return walk;

  // First step: uniform.
  graph::Csr::NeighborSpan first = graph.neighbors(start);
  if (first.size == 0) return walk;
  walk.push_back(first.neighbors[static_cast<size_t>(
      rng.UniformInt(static_cast<uint64_t>(first.size)))]);

  std::vector<double> weights;
  while (static_cast<int64_t>(walk.size()) <= length) {
    const graph::NodeId prev = walk[walk.size() - 2];
    const graph::NodeId current = walk.back();
    graph::Csr::NeighborSpan span = graph.neighbors(current);
    if (span.size == 0) break;
    weights.assign(static_cast<size_t>(span.size), 0.0);
    graph::Csr::NeighborSpan prev_span = graph.neighbors(prev);
    for (int64_t i = 0; i < span.size; ++i) {
      const graph::NodeId next = span.neighbors[i];
      double w;
      if (next == prev) {
        w = 1.0 / p;  // return
      } else {
        // d(prev, next) == 1 iff next is adjacent to prev (sorted lists).
        const bool adjacent = std::binary_search(
            prev_span.neighbors, prev_span.neighbors + prev_span.size, next);
        w = adjacent ? 1.0 : 1.0 / q;
      }
      weights[static_cast<size_t>(i)] = w;
    }
    const size_t pick = rng.Categorical(weights);
    walk.push_back(span.neighbors[pick]);
  }
  return walk;
}

}  // namespace widen::sampling
