// The serving subsystem's acceptance bar (DESIGN.md §10): a checkpoint
// loaded into an InferenceSession must reproduce WidenModel::EmbedNodes
// BITWISE — including nodes that exist only as post-training graph deltas —
// and batching/caching/parallelism must never change a single bit, only
// latency. Every equality in this file is memcmp, not EXPECT_NEAR.

#include "serve/inference_session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/checkpoint.h"
#include "core/encoder.h"
#include "core/widen_model.h"
#include "datasets/splits.h"
#include "datasets/synthetic.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "obs/profiler.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "serve/embedding_store.h"
#include "serve/graph_delta.h"
#include "serve/request_batcher.h"
#include "tensor/inference.h"
#include "util/json.h"
#include "util/random.h"
#include "worker_gate.h"

namespace widen::serve {
namespace {

namespace T = widen::tensor;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

core::WidenConfig SmallConfig() {
  core::WidenConfig config;
  config.embedding_dim = 8;
  config.num_wide_neighbors = 4;
  config.num_deep_neighbors = 3;
  config.num_deep_walks = 2;
  config.max_epochs = 2;
  config.eval_samples = 2;
  config.num_threads = 1;
  config.seed = 77;
  return config;
}

StatusOr<graph::HeteroGraph> MakeBaseGraph() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "serve_base";
  spec.node_types = {{"doc", 60, true}, {"tag", 16, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.0, 0.9},
                     {"doc-doc", "doc", "doc", 1.5, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = 12;
  spec.seed = 5;
  return datasets::GenerateSyntheticGraph(spec);
}

// An unweighted path 0-1-...-(n-1) with deterministic features and labels —
// full control over topology for the invalidation-exactness tests.
graph::HeteroGraph ChainGraph(int64_t n, int64_t feature_dim) {
  graph::GraphSchema schema;
  const graph::NodeTypeId vt = schema.AddNodeType("v");
  schema.AddEdgeType("link", vt, vt);
  graph::GraphBuilder builder(schema);
  for (int64_t i = 0; i < n; ++i) builder.AddNode(vt);
  for (int64_t i = 0; i + 1 < n; ++i) {
    WIDEN_CHECK_OK(builder.AddEdge(static_cast<graph::NodeId>(i),
                                   static_cast<graph::NodeId>(i + 1), 0));
  }
  T::Tensor features(T::Shape::Matrix(n, feature_dim));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < feature_dim; ++j) {
      features.mutable_data()[i * feature_dim + j] =
          0.1f * static_cast<float>((i * 31 + j * 7) % 11) - 0.5f;
    }
  }
  builder.SetFeatures(features);
  std::vector<int32_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  WIDEN_CHECK_OK(builder.SetLabels(std::move(labels), 2, vt));
  auto graph = builder.Build();
  WIDEN_CHECK(graph.ok());
  return std::move(graph).value();
}

// Writes an (untrained) parameter-only checkpoint for `graph`; since the
// model never trained, the file carries no embedding store and every node is
// cold for the session.
std::string WriteColdCheckpoint(const graph::HeteroGraph& graph,
                                const core::WidenConfig& config,
                                const char* name) {
  auto model = core::WidenModel::Create(&graph, config);
  WIDEN_CHECK(model.ok());
  const std::string path = TempPath(name);
  WIDEN_CHECK_OK(core::SaveWidenModel(**model, path));
  return path;
}

void ExpectRowsEqual(const T::Tensor& a, const T::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

// Every undirected edge of `g` exactly once (u < v).
std::vector<std::tuple<graph::NodeId, graph::NodeId, graph::EdgeTypeId>>
AllEdges(const graph::HeteroGraph& g) {
  std::vector<std::tuple<graph::NodeId, graph::NodeId, graph::EdgeTypeId>>
      edges;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::Csr::NeighborSpan span = g.neighbors(v);
    for (int64_t i = 0; i < span.size; ++i) {
      if (span.neighbors[i] > v) {
        edges.emplace_back(v, span.neighbors[i], span.edge_types[i]);
      }
    }
  }
  return edges;
}

TEST(InferenceSessionTest, RoundTripBitwiseEqualIncludingDeltaOnlyNodes) {
  auto base_or = MakeBaseGraph();
  ASSERT_TRUE(base_or.ok());
  graph::HeteroGraph base = std::move(base_or).value();
  auto split = datasets::MakeTransductiveSplit(base, 0.6, 0.2, 3);
  ASSERT_TRUE(split.ok());
  const core::WidenConfig config = SmallConfig();
  const std::string path = TempPath("serve_roundtrip.wdnt");
  {
    // Train, checkpoint, and "kill" the trainer: the session below sees only
    // the file.
    auto doomed = core::WidenModel::Create(&base, config);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE((*doomed)->Train(split->train).ok());
    ASSERT_TRUE(core::SaveTrainingState(**doomed, path).ok());
  }

  auto session_or = InferenceSession::Load(path, &base, config);
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  InferenceSession& session = **session_or;
  EXPECT_EQ(session.embedding_dim(), config.embedding_dim);
  EXPECT_EQ(session.num_nodes(), base.num_nodes());

  // Reference: a model restored from the SAME file (cache included).
  auto model_or = core::WidenModel::Create(&base, config);
  ASSERT_TRUE(model_or.ok());
  core::WidenModel& model = **model_or;
  ASSERT_TRUE(core::LoadWidenModel(model, path).ok());

  std::vector<graph::NodeId> all_base;
  for (graph::NodeId v = 0; v < base.num_nodes(); ++v) all_base.push_back(v);
  auto served = session.Embed(all_base);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectRowsEqual(*served, model.EmbedNodes(base, all_base));
  EXPECT_EQ(session.Predict(all_base).value(),
            model.Predict(base, all_base));

  // Grow the graph AFTER training: two connected nodes plus one isolated.
  const graph::NodeTypeId doc = base.schema().FindNodeType("doc").value();
  const graph::NodeTypeId tag = base.schema().FindNodeType("tag").value();
  const graph::EdgeTypeId doc_tag =
      base.schema().FindEdgeType("doc-tag").value();
  const graph::EdgeTypeId doc_doc =
      base.schema().FindEdgeType("doc-doc").value();
  graph::NodeId a_doc = -1;
  for (graph::NodeId v = 0; v < base.num_nodes(); ++v) {
    if (base.node_type(v) == doc) {
      a_doc = v;
      break;
    }
  }
  ASSERT_GE(a_doc, 0);
  const int64_t d0 = base.feature_dim();
  auto feat = [&](float scale) {
    std::vector<float> f(static_cast<size_t>(d0));
    for (int64_t j = 0; j < d0; ++j) {
      f[static_cast<size_t>(j)] = scale * static_cast<float>(j % 5) - 0.3f;
    }
    return f;
  };
  GraphDelta delta = session.NewDelta();
  const graph::NodeId n1 = delta.AddNode(doc, feat(0.2f));
  const graph::NodeId n2 = delta.AddNode(tag, feat(0.4f));
  const graph::NodeId iso = delta.AddNode(doc, feat(0.6f));
  delta.AddEdge(n1, a_doc, doc_doc);
  delta.AddEdge(n1, n2, doc_tag);
  auto version = session.Ingest(delta);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  EXPECT_EQ(session.num_nodes(), base.num_nodes() + 3);

  // Reference for the grown graph: materialize base + delta as a plain
  // HeteroGraph and seed the model with exactly the store the session holds
  // (base rows valid, new rows cold).
  graph::GraphBuilder builder(base.schema());
  for (graph::NodeId v = 0; v < base.num_nodes(); ++v) {
    builder.AddNode(base.node_type(v));
  }
  builder.AddNode(doc);  // n1
  builder.AddNode(tag);  // n2
  builder.AddNode(doc);  // iso
  for (const auto& [u, v, t] : AllEdges(base)) {
    ASSERT_TRUE(builder.AddEdge(u, v, t).ok());
  }
  ASSERT_TRUE(builder.AddEdge(n1, a_doc, doc_doc).ok());
  ASSERT_TRUE(builder.AddEdge(n1, n2, doc_tag).ok());
  const int64_t n_after = base.num_nodes() + 3;
  T::Tensor merged_features(T::Shape::Matrix(n_after, d0));
  std::memcpy(merged_features.mutable_data(), base.features().data(),
              static_cast<size_t>(base.num_nodes() * d0) * sizeof(float));
  const std::vector<std::vector<float>> new_feats = {feat(0.2f), feat(0.4f),
                                                     feat(0.6f)};
  for (int64_t i = 0; i < 3; ++i) {
    std::memcpy(
        merged_features.mutable_data() + (base.num_nodes() + i) * d0,
        new_feats[static_cast<size_t>(i)].data(),
        static_cast<size_t>(d0) * sizeof(float));
  }
  builder.SetFeatures(merged_features);
  auto merged_or = builder.Build();
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  graph::HeteroGraph merged = std::move(merged_or).value();

  auto weights = core::LoadServingWeights(path);
  ASSERT_TRUE(weights.ok());
  ASSERT_TRUE(weights->cache_reps.defined());
  T::Tensor ext_reps(T::Shape::Matrix(n_after, config.embedding_dim));
  T::Tensor ext_valid(T::Shape::Matrix(n_after, 1));
  std::memcpy(ext_reps.mutable_data(), weights->cache_reps.data(),
              static_cast<size_t>(base.num_nodes() * config.embedding_dim) *
                  sizeof(float));
  std::memcpy(ext_valid.mutable_data(), weights->cache_valid.data(),
              static_cast<size_t>(base.num_nodes()) * sizeof(float));
  ASSERT_TRUE(model.SeedCache(merged, ext_reps, ext_valid).ok());

  std::vector<graph::NodeId> queries = {
      n1, n2, iso, a_doc, 0,
      static_cast<graph::NodeId>(base.num_nodes() - 1)};
  auto served_delta = session.Embed(queries);
  ASSERT_TRUE(served_delta.ok());
  ExpectRowsEqual(*served_delta, model.EmbedNodes(merged, queries));
  EXPECT_EQ(session.Predict(queries).value(), model.Predict(merged, queries));

  // Warm pass: same bits, served from the store this time.
  const auto before = session.stats();
  auto warm = session.Embed(queries);
  ASSERT_TRUE(warm.ok());
  ExpectRowsEqual(*warm, *served_delta);
  const auto after = session.stats();
  EXPECT_EQ(after.cold_encodes, before.cold_encodes);
  EXPECT_GT(after.store_hits, before.store_hits);
}

// The read set a cold encode of `v` records on `graph`: the nodes whose
// adjacency it reads, which the session stores with the row.
std::vector<graph::NodeId> ReadSetOf(const graph::HeteroGraph& graph,
                                     const core::EncoderParams& params,
                                     const core::WidenConfig& config,
                                     graph::NodeId v) {
  graph::HeteroGraphView view(graph);
  ReadSetRecorder recorder(&view);
  T::InferenceScope inference;
  core::EncodeColdMean(recorder, params, config, v, /*reps=*/nullptr);
  return recorder.TakeReadSet();
}

bool Reads(const std::vector<graph::NodeId>& read_set, graph::NodeId v) {
  return std::binary_search(read_set.begin(), read_set.end(), v);
}

TEST(InferenceSessionTest, IngestDropsExactlyTheRowsThatReadATouchedNode) {
  const int64_t n = 12;
  graph::HeteroGraph chain = ChainGraph(n, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_chain.wdnt");
  auto weights = core::LoadServingWeights(path);
  ASSERT_TRUE(weights.ok());
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  InferenceSession& session = **session_or;
  const size_t d = static_cast<size_t>(session.embedding_dim());

  // Store the rows of nodes 0..8. Walks of N_d = 3 steps read adjacency at
  // most 2 hops out, so none of these rows read node 11.
  std::vector<graph::NodeId> stored;
  std::vector<std::vector<graph::NodeId>> read_sets;
  for (graph::NodeId v = 0; v < 9; ++v) {
    stored.push_back(v);
    read_sets.push_back(ReadSetOf(chain, weights->params, config, v));
    ASSERT_FALSE(Reads(read_sets.back(), 11)) << "node " << v;
  }
  auto cold = session.Embed(stored);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(session.stats().cold_encodes, 9);

  // Embeds each stored node alone; a row not in `dropped` must come from
  // the store, bitwise equal to its first encode.
  auto expect_served = [&](const std::vector<bool>& dropped) {
    for (size_t i = 0; i < stored.size(); ++i) {
      InferenceSession::EmbedReport report;
      auto row = session.Embed({stored[i]}, &report);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(report.store_hits, dropped[i] ? 0 : 1) << "node " << i;
      EXPECT_EQ(report.cold_encodes, dropped[i] ? 1 : 0) << "node " << i;
      if (!dropped[i]) {
        EXPECT_EQ(std::memcmp(row->data(), cold->data() + i * d,
                              d * sizeof(float)),
                  0)
            << "node " << i << " should have survived the ingest untouched";
      }
    }
  };

  // A delta at node 11, which no stored row read, drops nothing.
  GraphDelta far = session.NewDelta();
  far.AddEdge(far.AddNode(0, std::vector<float>(6, 0.5f)), 11, 0);
  ASSERT_TRUE(session.Ingest(far).ok());
  EXPECT_EQ(session.stats().store.invalidations, 0);
  expect_served(std::vector<bool>(stored.size(), false));

  // A delta at node 0: touched = {0, fresh}. Exactly the rows whose read
  // set holds one of them are dropped.
  GraphDelta near = session.NewDelta();
  const graph::NodeId fresh = near.AddNode(0, std::vector<float>(6, 0.25f));
  near.AddEdge(fresh, 0, 0);
  ASSERT_TRUE(session.Ingest(near).ok());
  std::vector<bool> dropped;
  int64_t num_dropped = 0;
  for (const auto& read_set : read_sets) {
    dropped.push_back(Reads(read_set, 0) || Reads(read_set, fresh));
    num_dropped += dropped.back() ? 1 : 0;
  }
  EXPECT_TRUE(dropped[0]);  // an encode always reads its target's adjacency
  EXPECT_FALSE(dropped[3] || dropped[8]);  // too far to read node 0
  EXPECT_EQ(session.stats().store.invalidations, num_dropped);
  expect_served(dropped);

  // Node 0 gained a neighbor, so its re-encoded row must actually change.
  auto node0 = session.Embed({0});
  ASSERT_TRUE(node0.ok());
  EXPECT_NE(std::memcmp(node0->data(), cold->data(), d * sizeof(float)), 0);
}

// The store's exactness audit. With a cold checkpoint every row goes
// through the store, which has room for all of them. After every random
// delta, each node must embed memcmp-equal to a fresh session that
// replayed the same deltas, and some rows must come from the store, so the
// check covers rows that survived an Ingest.
TEST(InferenceSessionTest, StoredRowsMatchAFreshReplayAfterRandomDeltas) {
  auto base_or = MakeBaseGraph();
  ASSERT_TRUE(base_or.ok());
  const graph::HeteroGraph base = std::move(base_or).value();
  const core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(base, config, "serve_audit.wdnt");
  auto live_or = InferenceSession::Load(path, &base, config);
  ASSERT_TRUE(live_or.ok());
  InferenceSession& live = **live_or;
  const graph::GraphSchema& schema = base.schema();
  const graph::NodeTypeId doc = schema.FindNodeType("doc").value();
  const graph::NodeTypeId tag = schema.FindNodeType("tag").value();
  const graph::EdgeTypeId doc_tag = schema.FindEdgeType("doc-tag").value();
  const graph::EdgeTypeId doc_doc = schema.FindEdgeType("doc-doc").value();

  std::vector<graph::NodeTypeId> types;
  for (graph::NodeId v = 0; v < base.num_nodes(); ++v) {
    types.push_back(base.node_type(v));
  }
  Rng rng(2024);
  std::vector<GraphDelta> deltas;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int64_t n = live.num_nodes();
    std::vector<graph::NodeId> queries;
    for (uint64_t k = 1 + rng.UniformInt(16); k > 0; --k) {
      queries.push_back(static_cast<graph::NodeId>(
          rng.UniformInt(static_cast<uint64_t>(n))));
    }
    ASSERT_TRUE(live.Embed(queries).ok());

    // A new node wired to 1-3 existing nodes (tags link only to docs).
    GraphDelta delta = live.NewDelta();
    const graph::NodeTypeId type = rng.UniformInt(2) == 0 ? doc : tag;
    std::vector<float> features(static_cast<size_t>(base.feature_dim()));
    for (float& f : features) f = rng.UniformFloat(-1.0f, 1.0f);
    const graph::NodeId fresh = delta.AddNode(type, std::move(features));
    for (uint64_t e = 1 + rng.UniformInt(3); e > 0; --e) {
      graph::NodeId u;
      do {
        u = static_cast<graph::NodeId>(
            rng.UniformInt(static_cast<uint64_t>(n)));
      } while (type == tag && types[static_cast<size_t>(u)] == tag);
      const bool both_docs =
          type == doc && types[static_cast<size_t>(u)] == doc;
      delta.AddEdge(fresh, u, both_docs ? doc_doc : doc_tag);
    }
    ASSERT_TRUE(live.Ingest(delta).ok());
    types.push_back(type);
    deltas.push_back(std::move(delta));

    auto replay_or = InferenceSession::Load(path, &base, config);
    ASSERT_TRUE(replay_or.ok());
    for (const GraphDelta& past : deltas) {
      ASSERT_TRUE((*replay_or)->Ingest(past).ok());
    }
    std::vector<graph::NodeId> all(static_cast<size_t>(live.num_nodes()));
    for (size_t v = 0; v < all.size(); ++v) {
      all[v] = static_cast<graph::NodeId>(v);
    }
    const int64_t hits_before = live.stats().store_hits;
    auto served = live.Embed(all);
    auto want = (*replay_or)->Embed(all);
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(want.ok());
    ExpectRowsEqual(*served, *want);
    // From the second round on the store held every row before the delta.
    if (round > 0) {
      EXPECT_GT(live.stats().store_hits, hits_before);
    }
  }
}

TEST(InferenceSessionTest, RejectsBadLoadsDeltasAndQueries) {
  graph::HeteroGraph chain = ChainGraph(8, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_rej.wdnt");

  // Load-time validation.
  EXPECT_FALSE(InferenceSession::Load(path, nullptr, config).ok());
  EXPECT_FALSE(InferenceSession::Load(TempPath("no_such.wdnt"), &chain,
                                      config).ok());
  core::WidenConfig wrong_d = config;
  wrong_d.embedding_dim = 16;
  EXPECT_FALSE(InferenceSession::Load(path, &chain, wrong_d).ok());
  graph::HeteroGraph wrong_features = ChainGraph(8, 9);
  EXPECT_FALSE(InferenceSession::Load(path, &wrong_features, config).ok());

  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());
  InferenceSession& session = **session_or;

  // Query validation.
  EXPECT_EQ(session.Embed({-1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Embed({99}).status().code(),
            StatusCode::kInvalidArgument);

  // Delta validation: every rejection leaves the view untouched.
  std::vector<float> good_feat(6, 0.1f);
  {
    GraphDelta bad_type = session.NewDelta();
    bad_type.AddNode(7, good_feat);
    EXPECT_EQ(session.Ingest(bad_type).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    GraphDelta bad_width = session.NewDelta();
    bad_width.AddNode(0, std::vector<float>(3, 0.1f));
    EXPECT_EQ(session.Ingest(bad_width).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    GraphDelta self_loop = session.NewDelta();
    const graph::NodeId v = self_loop.AddNode(0, good_feat);
    self_loop.AddEdge(v, v, 0);
    EXPECT_EQ(session.Ingest(self_loop).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    GraphDelta dangling = session.NewDelta();
    dangling.AddEdge(0, 42, 0);
    EXPECT_EQ(session.Ingest(dangling).status().code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(session.num_nodes(), 8);
  EXPECT_EQ(session.graph_version(), 0u);

  // A delta built against a stale snapshot is refused even if well-formed.
  GraphDelta stale = session.NewDelta();
  stale.AddNode(0, good_feat);
  GraphDelta current = session.NewDelta();
  current.AddNode(0, good_feat);
  ASSERT_TRUE(session.Ingest(current).ok());
  EXPECT_EQ(session.Ingest(stale).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InferenceSessionTest, ColdEncodesAreTapeFreeAndReuseBuffers) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_scope.wdnt");
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());
  InferenceSession& session = **session_or;

  T::InferenceScope::ResetThreadStats();
  ASSERT_TRUE(session.Embed({0, 1, 2}).ok());
  EXPECT_EQ(T::InferenceScope::ThreadStats().grad_allocations, 0);
  ASSERT_TRUE(session.Embed({3, 4, 5}).ok());
  const auto stats = T::InferenceScope::ThreadStats();
  EXPECT_EQ(stats.grad_allocations, 0);
  EXPECT_GT(stats.buffers_reused, 0);  // second call recycles the first's
}

TEST(InferenceSessionTest, ParallelColdFanOutMatchesSerial) {
  graph::HeteroGraph chain = ChainGraph(16, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_par.wdnt");

  auto serial_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(serial_or.ok());
  SessionOptions par;
  par.num_threads = 4;
  auto parallel_or = InferenceSession::Load(path, &chain, config, par);
  ASSERT_TRUE(parallel_or.ok());

  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < 16; ++v) all.push_back(v);
  auto a = (*serial_or)->Embed(all);
  auto b = (*parallel_or)->Embed(all);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectRowsEqual(*a, *b);
}

// Cold encodes run under the cold_encode stage on whichever thread encodes
// them, so fanning them out to the session's pool leaves no MatMul
// unattributed.
TEST(InferenceSessionTest, ProfilerAttributesPoolThreadColdEncodes) {
  graph::HeteroGraph chain = ChainGraph(16, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "serve_stage.wdnt");
  SessionOptions options;
  options.num_threads = 2;
  auto session_or = InferenceSession::Load(path, &chain, config, options);
  ASSERT_TRUE(session_or.ok());
  std::vector<graph::NodeId> first, second;
  for (graph::NodeId v = 0; v < 16; ++v) (v < 8 ? first : second).push_back(v);

  obs::Profiler& profiler = obs::Profiler::Get();
  profiler.Reset();
  profiler.Start();
  ASSERT_TRUE((*session_or)->Embed(first).ok());
  ASSERT_TRUE((*session_or)->Embed(second).ok());
  profiler.Stop();
  const int64_t matmuls = profiler.Totals(obs::ProfOp::kMatMul).calls;
  EXPECT_GT(matmuls, 0);
  EXPECT_EQ(
      profiler.Totals(obs::ProfOp::kMatMul, obs::Stage::kColdEncode).calls,
      matmuls);
  EXPECT_EQ(profiler.Totals(obs::ProfOp::kMatMul, obs::Stage::kOther).calls,
            0);
  EXPECT_GT(profiler.PhaseWallNs(obs::Stage::kColdEncode), 0);
  profiler.Reset();
}

// Trace events and RequestContext stamps read one clock: the run_batch
// event contains the batch's encode interval exactly as the context
// records it.
TEST(RequestBatcherTest, RunBatchEventContainsTheContextEncodeInterval) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "serve_axis.wdnt");
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());

  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Clear();
  recorder.Start();
  RequestContext context;
  {
    RequestBatcher batcher(session_or->get());
    RequestBatcher::SubmitOptions submit;
    submit.context = &context;
    ASSERT_TRUE(batcher.SubmitEmbed({1, 2, 3}, submit).get().ok());
  }  // joins the worker: the run_batch event is recorded
  recorder.Stop();
  auto trace = Json::Parse(recorder.ExportChromeJson());
  recorder.Clear();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  EXPECT_EQ(context.batch_nodes, 3);
  EXPECT_GE(context.encode_us, 0);
  int run_batches = 0;
  for (const Json& e : trace->Find("traceEvents")->array_items()) {
    if (e.Find("name")->string_value() != "run_batch") continue;
    ++run_batches;
    const int64_t ts = e.Find("ts")->int_value();
    const int64_t end = ts + e.Find("dur")->int_value();
    EXPECT_LE(ts, context.batch_formed_us);
    EXPECT_GE(end, context.batch_formed_us + context.encode_us);
    EXPECT_LE(end, obs::MonotonicMicros());
  }
  EXPECT_EQ(run_batches, 1);
}

TEST(RequestBatcherTest, BatchedResultsAreIdenticalToUnbatched) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_bat.wdnt");
  auto direct_or = InferenceSession::Load(path, &chain, config);
  auto batched_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(direct_or.ok());
  ASSERT_TRUE(batched_or.ok());

  BatcherOptions options;
  RequestBatcher batcher(batched_or->get(), options);

  const std::vector<std::vector<graph::NodeId>> requests = {
      {0}, {1, 2}, {3, 4, 5}, {6}, {7, 8}, {9, 0, 5}};
  std::vector<std::future<StatusOr<T::Tensor>>> futures;
  for (const auto& r : requests) {
    futures.push_back(batcher.SubmitEmbed(r));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = (*direct_or)->Embed(requests[i]);
    ASSERT_TRUE(want.ok());
    ExpectRowsEqual(*got, *want);
  }
  auto predicted = batcher.SubmitPredict({1, 4, 7}).get();
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(*predicted, (*direct_or)->Predict({1, 4, 7}).value());

  // Empty and out-of-range requests fail alone, poisoning no batch.
  EXPECT_FALSE(batcher.SubmitEmbed({}).get().ok());
  EXPECT_FALSE(batcher.SubmitEmbed({123}).get().ok());

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(requests.size()) + 3);
  EXPECT_GT(stats.batches, 0);
  EXPECT_LE(stats.batches, static_cast<int64_t>(requests.size()) + 1);
}

TEST(RequestBatcherTest, ConcurrentClientsWithInterleavedIngests) {
  graph::HeteroGraph chain = ChainGraph(12, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_conc.wdnt");
  SessionOptions options;
  options.store_capacity = 64;
  auto session_or = InferenceSession::Load(path, &chain, config, options);
  ASSERT_TRUE(session_or.ok());
  InferenceSession& session = **session_or;
  RequestBatcher batcher(&session);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        // Only ids < 12 — valid before, during, and after every ingest.
        const graph::NodeId a = static_cast<graph::NodeId>((c * 7 + q) % 12);
        const graph::NodeId b = static_cast<graph::NodeId>((c + q * 5) % 12);
        auto embedding = batcher.SubmitEmbed({a, b}).get();
        auto prediction = batcher.SubmitPredict({b}).get();
        if (!embedding.ok() || embedding->rows() != 2 || !prediction.ok() ||
            prediction->size() != 1) {
          ++failures;
        }
      }
    });
  }
  // Grow the graph while the clients hammer the batcher.
  for (int i = 0; i < 3; ++i) {
    GraphDelta delta = session.NewDelta();
    const graph::NodeId fresh =
        delta.AddNode(0, std::vector<float>(6, 0.1f * static_cast<float>(i)));
    delta.AddEdge(fresh, static_cast<graph::NodeId>(i * 4), 0);
    ASSERT_TRUE(session.Ingest(delta).ok());
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(batcher.stats().requests, kClients * kQueriesPerClient * 2);
  EXPECT_EQ(session.graph_version(), 3u);
  EXPECT_EQ(session.num_nodes(), 15);
}

TEST(ReadSetRecorderTest, RecordsAdjacencyReadsAndForwardsEveryCall) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  graph::HeteroGraphView view(chain);
  ReadSetRecorder recorder(&view);
  EXPECT_EQ(recorder.neighbors(7).neighbors, chain.neighbors(7).neighbors);
  EXPECT_EQ(recorder.degree(3), 2);
  EXPECT_EQ(recorder.neighbors(7).size, 2);
  // Reads of state a delta never changes are forwarded, not recorded.
  EXPECT_EQ(recorder.feature_row(5), view.feature_row(5));
  EXPECT_EQ(recorder.node_type(9), chain.node_type(9));
  EXPECT_EQ(recorder.num_nodes(), 10);
  EXPECT_EQ(recorder.feature_dim(), 6);
  EXPECT_EQ(recorder.TakeReadSet(), std::vector<graph::NodeId>({3, 7}));
  EXPECT_TRUE(recorder.TakeReadSet().empty());
}

TEST(EmbeddingStoreTest, LruOrderReadSetInvalidationAndResidentBytes) {
  using ReadSet = std::vector<graph::NodeId>;
  const float ra[] = {1.0f, 2.0f};
  const float rb[] = {3.0f, 4.0f};
  const float rc[] = {5.0f, 6.0f};
  const float rd[] = {7.0f, 8.0f};
  float out[2];
  auto holds = [&](EmbeddingStore& s, graph::NodeId v, const float* row) {
    return s.Lookup(v, out) && out[0] == row[0] && out[1] == row[1];
  };

  // LRU order.
  EmbeddingStore lru(2, 2);
  lru.Insert(10, ra, {10});
  lru.Insert(11, rb, {11});
  lru.Insert(12, rc, {12});  // evicts node 10 (LRU)
  EXPECT_FALSE(lru.Lookup(10, out));
  EXPECT_TRUE(holds(lru, 11, rb));
  EXPECT_EQ(lru.stats().evictions, 1);
  lru.Insert(13, rd, {13});  // touching 11 made it MRU: evicts 12
  EXPECT_FALSE(lru.Lookup(12, out));
  EXPECT_TRUE(holds(lru, 11, rb));
  EXPECT_TRUE(holds(lru, 13, rd));

  // Invalidate drops exactly the rows whose read set holds a touched node
  // and returns how many; survivors keep their rows and LRU positions.
  EmbeddingStore store(3, 2);
  store.Insert(1, ra, {1, 2, 3});
  store.Insert(2, rb, {2, 5});
  store.Insert(3, rc, {3, 9});
  EXPECT_EQ(store.Invalidate({0, 4, 6, 100}), 0);  // no read set holds them
  EXPECT_EQ(store.Invalidate({}), 0);
  EXPECT_EQ(store.Invalidate({5, 100}), 1);  // node 2's row
  EXPECT_EQ(store.stats().invalidations, 1);
  EXPECT_EQ(store.size(), 2);
  EXPECT_FALSE(store.Lookup(2, out));
  store.Insert(4, rd, {4});
  store.Insert(5, rd, {5});  // full: evicts node 1, the least recent survivor
  EXPECT_FALSE(store.Lookup(1, out));
  EXPECT_TRUE(holds(store, 3, rc));
  EXPECT_EQ(store.Invalidate({3, 4}), 2);
  EXPECT_EQ(store.size(), 1);

  // An overwrite replaces both the row and the read set.
  store.Insert(5, ra, {6, 7});
  EXPECT_EQ(store.size(), 1);
  EXPECT_TRUE(holds(store, 5, ra));
  EXPECT_EQ(store.Invalidate({5}), 0);
  EXPECT_EQ(store.Invalidate({7}), 1);

  // Zero capacity disables caching entirely.
  EmbeddingStore disabled(0, 2);
  disabled.Insert(1, ra, {1});
  EXPECT_FALSE(disabled.Lookup(1, out));
  EXPECT_EQ(disabled.size(), 0);
  EXPECT_EQ(disabled.ResidentBytes(), 0);

  // ResidentBytes is a running total: after any sequence of inserts,
  // overwrites, evictions and invalidations it equals a recount of what the
  // store holds.
  EmbeddingStore one(1, 2);
  one.Insert(0, ra, {});
  const int64_t row_bytes = one.ResidentBytes();  // bookkeeping + 2 floats
  EmbeddingStore random(8, 2);
  std::vector<ReadSet> latest(32);  // each node's last inserted read set
  auto recount = [&] {
    int64_t bytes = 0;
    for (graph::NodeId v = 0; v < 32; ++v) {
      if (!random.Lookup(v, out)) continue;
      bytes += row_bytes + static_cast<int64_t>(
                               latest[static_cast<size_t>(v)].size() *
                               sizeof(graph::NodeId));
    }
    return bytes;
  };
  Rng rng(11);
  for (int op = 0; op < 400; ++op) {
    if (rng.UniformInt(3) != 0) {
      const graph::NodeId v = static_cast<graph::NodeId>(rng.UniformInt(32));
      ReadSet reads;
      for (graph::NodeId u = 0; u < 40; ++u) {
        if (rng.UniformInt(4) == 0) reads.push_back(u);
      }
      latest[static_cast<size_t>(v)] = reads;
      random.Insert(v, rb, ReadSet(reads.begin(), reads.end()));
    } else {
      const graph::NodeId touched =
          static_cast<graph::NodeId>(rng.UniformInt(40));
      int64_t expected = 0;
      for (graph::NodeId v = 0; v < 32; ++v) {
        if (random.Lookup(v, out) &&
            Reads(latest[static_cast<size_t>(v)], touched)) {
          ++expected;
        }
      }
      EXPECT_EQ(random.Invalidate({touched}), expected);
    }
    if (op % 20 == 19) {
      EXPECT_EQ(random.ResidentBytes(), recount());
    }
  }
  const EmbeddingStore::Stats& stats = random.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.invalidations, 0);
  EXPECT_EQ(stats.insertions - stats.evictions - stats.invalidations,
            random.size());
  EXPECT_EQ(random.ResidentBytes(), recount());
}

// Batch while busy: requests that arrive while the worker runs a batch
// queue up and form the next batch together, as soon as the worker is free.
TEST(RequestBatcherTest, QueuedRequestsFormOneBatchWhenTheWorkerFrees) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "serve_busy.wdnt");
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());

  testing::WorkerGate gate;
  BatcherOptions options;
  options.post_batch_hook_for_test = [&gate] { gate.HoldOnce(); };
  RequestBatcher batcher(session_or->get(), options);

  auto first = batcher.SubmitEmbed({0});
  gate.AwaitHeld();
  const std::vector<std::vector<graph::NodeId>> queued = {
      {1}, {2, 3}, {4}, {5, 6, 7}};
  std::vector<std::future<StatusOr<T::Tensor>>> futures;
  for (const auto& r : queued) futures.push_back(batcher.SubmitEmbed(r));

  const auto t0 = std::chrono::steady_clock::now();
  gate.Open();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(first.get().ok());

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.batches, 2);  // the gate batch + one holding all four
  EXPECT_EQ(stats.max_batch, 7);
  // The batch forms as soon as the hook returns; no timer holds it. The
  // bound is generous: one small cold batch takes a few milliseconds.
  EXPECT_LT(waited, std::chrono::milliseconds(250));
}

// A batch closes before the request that would take it past kMaxBatchNodes;
// no request is ever split, and a larger one runs whole in its own batch.
TEST(RequestBatcherTest, QueuedRequestsSplitOnlyAtRequestBoundaries) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "serve_split.wdnt");
  auto direct_or = InferenceSession::Load(path, &chain, config);
  auto batched_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(direct_or.ok());
  ASSERT_TRUE(batched_or.ok());

  constexpr int64_t kCap = RequestBatcher::kMaxBatchNodes;
  const std::vector<int64_t> sizes = {kCap / 2 - 4, kCap / 2 - 4,
                                      kCap / 2 - 4, kCap + 8, 5};
  // Each request's batch, in nodes: two fit under the cap, the third would
  // pass it and opens the next batch, and the oversized one runs alone.
  const std::vector<int64_t> want_batch = {kCap - 8, kCap - 8, kCap / 2 - 4,
                                           kCap + 8, 5};
  std::vector<std::vector<graph::NodeId>> requests;
  for (size_t r = 0; r < sizes.size(); ++r) {
    std::vector<graph::NodeId> nodes;
    for (int64_t i = 0; i < sizes[r]; ++i) {
      nodes.push_back(
          static_cast<graph::NodeId>((static_cast<int64_t>(3 * r) + i) % 10));
    }
    requests.push_back(std::move(nodes));
  }
  // Declared before the batcher, which stamps them until it is destroyed.
  std::vector<RequestContext> contexts(requests.size());

  testing::WorkerGate gate;
  BatcherOptions options;
  options.post_batch_hook_for_test = [&gate] { gate.HoldOnce(); };
  RequestBatcher batcher(batched_or->get(), options);

  auto first = batcher.SubmitEmbed({0});
  gate.AwaitHeld();
  std::vector<std::future<StatusOr<T::Tensor>>> futures;
  for (size_t r = 0; r < requests.size(); ++r) {
    RequestBatcher::SubmitOptions submit;
    submit.context = &contexts[r];
    futures.push_back(batcher.SubmitEmbed(requests[r], submit));
  }
  gate.Open();

  ASSERT_TRUE(first.get().ok());
  for (size_t r = 0; r < requests.size(); ++r) {
    StatusOr<T::Tensor> got = futures[r].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = (*direct_or)->Embed(requests[r]);
    ASSERT_TRUE(want.ok());
    ExpectRowsEqual(*got, *want);
    EXPECT_EQ(contexts[r].batch_nodes, want_batch[r]) << "request " << r;
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.batches, 5);  // the gate batch + four
  EXPECT_EQ(stats.max_batch, kCap + 8);
}

TEST(RequestBatcherTest, ShutdownUnderLoadResolvesEveryFuture) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path =
      WriteColdCheckpoint(chain, config, "serve_shut.wdnt");
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());

  BatcherOptions options;
  RequestBatcher batcher(session_or->get(), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<std::future<StatusOr<T::Tensor>>>> futures(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    futures[t].reserve(kPerThread);
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            batcher.SubmitEmbed({static_cast<graph::NodeId>((t + i) % 10)}));
      }
    });
  }
  // Yank the batcher down while submissions are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  batcher.Shutdown();
  for (std::thread& t : submitters) t.join();

  // Every future — served, queued at shutdown, or submitted after — must
  // resolve with a value or a typed status, never a broken promise or hang.
  int64_t served = 0;
  int64_t refused = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      StatusOr<T::Tensor> result = f.get();
      if (result.ok()) {
        ++served;
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << result.status().ToString();
        ++refused;
      }
    }
  }
  EXPECT_EQ(served + refused, kThreads * kPerThread);
}

TEST(RequestBatcherTest, FanOutSurvivesThrowingPerRequestWork) {
  graph::HeteroGraph chain = ChainGraph(10, 6);
  core::WidenConfig config = SmallConfig();
  const std::string path = WriteColdCheckpoint(chain, config, "serve_fan.wdnt");
  auto session_or = InferenceSession::Load(path, &chain, config);
  ASSERT_TRUE(session_or.ok());

  // A gate batch holds the worker while the three requests queue up, so they
  // form one batch.
  testing::WorkerGate gate;
  BatcherOptions options;
  options.post_batch_hook_for_test = [&gate] { gate.HoldOnce(); };
  // Same failure path as a throwing ClassifyRows/ArgMaxRows: the middle
  // request's per-pending work explodes after the batch ran.
  options.fan_out_hook_for_test = [](size_t index) {
    if (index == 1) throw std::runtime_error("injected fan-out failure");
  };
  RequestBatcher batcher(session_or->get(), options);

  auto gate_request = batcher.SubmitEmbed({3});
  gate.AwaitHeld();
  auto f0 = batcher.SubmitEmbed({0});
  auto f1 = batcher.SubmitPredict({1});
  auto f2 = batcher.SubmitEmbed({2});
  gate.Open();

  ASSERT_TRUE(gate_request.get().ok());
  StatusOr<T::Tensor> r0 = f0.get();
  StatusOr<std::vector<int32_t>> r1 = f1.get();
  StatusOr<T::Tensor> r2 = f2.get();
  ASSERT_EQ(batcher.stats().batches, 2);  // the gate batch + all three
  EXPECT_TRUE(r0.ok()) << r0.status().ToString();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInternal);
  EXPECT_NE(r1.status().message().find("injected"), std::string::npos);
  // The neighbor AFTER the throwing pending still gets its rows.
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto want = (*session_or)->Embed({2});
  ASSERT_TRUE(want.ok());
  ExpectRowsEqual(*r2, *want);
}

TEST(RequestBatcherTest, BatchFormationRevalidatesAgainstTheLiveSession) {
  graph::HeteroGraph big = ChainGraph(12, 6);
  graph::HeteroGraph small = ChainGraph(8, 6);
  core::WidenConfig config = SmallConfig();
  const std::string big_path =
      WriteColdCheckpoint(big, config, "serve_swap_big.wdnt");
  const std::string small_path =
      WriteColdCheckpoint(small, config, "serve_swap_small.wdnt");
  auto big_or = InferenceSession::Load(big_path, &big, config);
  auto small_or = InferenceSession::Load(small_path, &small, config);
  ASSERT_TRUE(big_or.ok());
  ASSERT_TRUE(small_or.ok());
  std::shared_ptr<InferenceSession> big_session = std::move(big_or).value();
  std::shared_ptr<InferenceSession> small_session =
      std::move(small_or).value();

  std::mutex live_mu;
  std::shared_ptr<InferenceSession> live = big_session;
  testing::WorkerGate gate;
  BatcherOptions options;
  options.post_batch_hook_for_test = [&gate] { gate.HoldOnce(); };
  RequestBatcher batcher(RequestBatcher::SessionProvider([&] {
                           std::lock_guard<std::mutex> lock(live_mu);
                           return live;
                         }),
                         options);

  // A gate batch holds the worker while the next two requests queue.
  auto gate_request = batcher.SubmitEmbed({0});
  gate.AwaitHeld();
  // Both valid against the 12-node session at enqueue time...
  auto stale = batcher.SubmitEmbed({10});
  auto fine = batcher.SubmitEmbed({2});
  {
    // ...but the batch forms after a hot reload onto an 8-node graph.
    std::lock_guard<std::mutex> lock(live_mu);
    live = small_session;
  }
  gate.Open();
  ASSERT_TRUE(gate_request.get().ok());
  StatusOr<T::Tensor> stale_result = stale.get();
  ASSERT_FALSE(stale_result.ok());
  EXPECT_EQ(stale_result.status().code(), StatusCode::kFailedPrecondition)
      << stale_result.status().ToString();
  // The enqueue-time validation was against the OLD session; the request
  // must not reach (or poison) the batch that runs on the new one.
  StatusOr<T::Tensor> fine_result = fine.get();
  ASSERT_TRUE(fine_result.ok()) << fine_result.status().ToString();
  auto want = small_session->Embed({2});
  ASSERT_TRUE(want.ok());
  ExpectRowsEqual(*fine_result, *want);
  EXPECT_EQ(batcher.stats().stale, 1);

  // A deadline that expires in the queue fails typed at formation, too.
  RequestBatcher::SubmitOptions past;
  past.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  StatusOr<T::Tensor> expired = batcher.SubmitEmbed({1}, past).get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.stats().expired, 1);
}

TEST(GraphDeltaTest, OverlayMatchesMaterializedGraphAdjacency) {
  graph::HeteroGraph chain = ChainGraph(6, 4);
  DeltaGraphView view(&chain);
  GraphDelta delta(6);
  const graph::NodeId fresh = delta.AddNode(0, std::vector<float>(4, 0.5f));
  delta.AddEdge(fresh, 2, 0);
  delta.AddEdge(fresh, 4, 0);
  auto touched = view.Apply(delta);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(*touched, (std::vector<graph::NodeId>{2, 4, 6}));
  EXPECT_EQ(view.num_nodes(), 7);
  EXPECT_EQ(view.degree(fresh), 2);
  EXPECT_EQ(view.degree(2), 3);  // 1, 3, fresh
  EXPECT_EQ(view.degree(5), 1);  // untouched base node

  // Merged lists stay sorted by (neighbor, edge_type) — the CSR invariant
  // sampling determinism rests on.
  const graph::Csr::NeighborSpan two = view.neighbors(2);
  ASSERT_EQ(two.size, 3);
  EXPECT_EQ(two.neighbors[0], 1);
  EXPECT_EQ(two.neighbors[1], 3);
  EXPECT_EQ(two.neighbors[2], fresh);
  const graph::Csr::NeighborSpan nf = view.neighbors(fresh);
  ASSERT_EQ(nf.size, 2);
  EXPECT_EQ(nf.neighbors[0], 2);
  EXPECT_EQ(nf.neighbors[1], 4);
  EXPECT_EQ(view.feature_row(fresh)[0], 0.5f);
  EXPECT_EQ(view.node_type(fresh), 0);
}

}  // namespace
}  // namespace widen::serve
