// Tests for the out-of-core shard store (src/storage/): on-disk round-trip
// against the in-RAM graph, the global->(shard,local) resolver, the halo
// cache, streaming synthetic generation (seed- and thread-count-invariant),
// bitwise sampling/training parity across backings, and the corruption
// matrix (every truncation and byte flip of every store file is a typed
// error, never a crash).

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/widen_model.h"
#include "datasets/synthetic.h"
#include "datasets/synthetic_stream.h"
#include "graph/graph_view.h"
#include "graph/hetero_graph.h"
#include "gtest/gtest.h"
#include "sampling/neighbor_sampler.h"
#include "storage/halo_cache.h"
#include "storage/shard_format.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "util/file_util.h"
#include "util/random.h"

namespace widen::storage {
namespace {

std::string TempDir(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

datasets::SyntheticGraphSpec TinySpec() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "storage-tiny";
  spec.node_types = {{"doc", 160, true}, {"tag", 40, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.0, 0.9},
                     {"doc-doc", "doc", "doc", 1.5, 0.7}};
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.seed = 11;
  return spec;
}

graph::HeteroGraph TinyGraph() {
  auto graph = datasets::GenerateSyntheticGraph(TinySpec());
  WIDEN_CHECK(graph.ok());
  return std::move(graph).value();
}

// Writes TinyGraph into `dir` with `num_shards` shards and opens it back.
ShardedGraph WriteAndOpen(const graph::HeteroGraph& graph,
                          const std::string& dir, int32_t num_shards) {
  WriteShardsOptions options;
  options.num_shards = num_shards;
  auto stats = WriteShards(graph, dir, options);
  WIDEN_CHECK_OK(stats.status());
  auto store = ShardedGraph::Open(dir);
  WIDEN_CHECK_OK(store.status());
  return std::move(store).value();
}

TEST(ShardStoreTest, RoundTripsEveryNodeAgainstInRamGraph) {
  graph::HeteroGraph graph = TinyGraph();
  ShardedGraph store = WriteAndOpen(graph, TempDir("rt_store"), 3);

  EXPECT_EQ(store.num_nodes(), graph.num_nodes());
  EXPECT_EQ(store.feature_dim(), graph.feature_dim());
  EXPECT_EQ(store.schema().num_node_types(), graph.schema().num_node_types());
  EXPECT_EQ(store.schema().num_edge_types(), graph.schema().num_edge_types());
  EXPECT_TRUE(store.has_labels());

  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(store.node_type(v), graph.node_type(v)) << v;
    EXPECT_EQ(store.label(v), graph.label(v)) << v;
    ASSERT_EQ(store.degree(v), graph.degree(v)) << v;
    const graph::Csr::NeighborSpan ours = store.neighbors(v);
    const graph::Csr::NeighborSpan theirs = graph.neighbors(v);
    ASSERT_EQ(ours.size, theirs.size) << v;
    // Byte-identical spans are the parity contract (sharded_graph.h).
    EXPECT_EQ(std::memcmp(ours.neighbors, theirs.neighbors,
                          sizeof(graph::NodeId) * ours.size),
              0)
        << v;
    EXPECT_EQ(std::memcmp(ours.edge_types, theirs.edge_types,
                          sizeof(graph::EdgeTypeId) * ours.size),
              0)
        << v;
    const float* row = store.feature_row(v);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(std::memcmp(row, graph.features().data() +
                                   v * graph.feature_dim(),
                          sizeof(float) * graph.feature_dim()),
              0)
        << v;
  }
}

TEST(ShardStoreTest, LocateIsABijectionOnGlobalIds) {
  graph::HeteroGraph graph = TinyGraph();
  ShardedGraph store = WriteAndOpen(graph, TempDir("loc_store"), 4);
  std::vector<int64_t> per_shard(static_cast<size_t>(store.num_shards()), 0);
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const ShardLocation loc = store.Locate(v);
    ASSERT_GE(loc.shard, 0);
    ASSERT_LT(loc.shard, store.num_shards());
    const ShardedGraph::Shard& sh = store.shard(loc.shard);
    ASSERT_GE(loc.local, 0);
    ASSERT_LT(loc.local, sh.num_local_nodes);
    EXPECT_EQ(sh.global_ids[loc.local], v);
    ++per_shard[static_cast<size_t>(loc.shard)];
  }
  int64_t total = 0;
  for (int32_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(per_shard[static_cast<size_t>(s)],
              store.shard(s).num_local_nodes);
    total += per_shard[static_cast<size_t>(s)];
  }
  EXPECT_EQ(total, store.num_nodes());
}

TEST(ShardStoreTest, SamplingIsBitwiseIdenticalAcrossBackings) {
  graph::HeteroGraph graph = TinyGraph();
  ShardedGraph store = WriteAndOpen(graph, TempDir("samp_store"), 3);
  graph::HeteroGraphView ram_view(graph);
  ShardedGraphView ooc_view(store);

  for (graph::NodeId v : {0, 17, 63, 159, 180}) {
    Rng ram_rng(1234 + v);
    Rng ooc_rng(1234 + v);
    const auto a = sampling::SampleWideNeighbors(ram_view, v, 12, ram_rng);
    const auto b = sampling::SampleWideNeighbors(ooc_view, v, 12, ooc_rng);
    EXPECT_EQ(a.nodes, b.nodes) << v;
    EXPECT_EQ(a.edge_types, b.edge_types) << v;
  }
}

TEST(ShardStoreTest, TrainingThroughShardStoreIsBitwiseIdentical) {
  graph::HeteroGraph graph = TinyGraph();
  ShardedGraph store = WriteAndOpen(graph, TempDir("train_store"), 3);
  ShardedGraphView view(store);

  core::WidenConfig config;
  config.embedding_dim = 8;
  config.max_epochs = 2;
  config.num_threads = 1;
  config.seed = 21;
  const std::vector<graph::NodeId> labeled = graph.LabeledNodes();
  ASSERT_GE(labeled.size(), 64u);
  const std::vector<graph::NodeId> train(labeled.begin(),
                                         labeled.begin() + 64);

  auto run = [&](const graph::GraphView* sampling_view) {
    auto model = core::WidenModel::Create(&graph, config);
    WIDEN_CHECK_OK(model.status());
    (*model)->SetSamplingView(sampling_view);
    WIDEN_CHECK_OK((*model)->Train(train).status());
    return (*model)->EmbedNodes(graph, train);
  };
  const tensor::Tensor ram = run(nullptr);
  const tensor::Tensor ooc = run(&view);
  ASSERT_EQ(ram.size(), ooc.size());
  EXPECT_EQ(std::memcmp(ram.data(), ooc.data(),
                        sizeof(float) * static_cast<size_t>(ram.size())),
            0)
      << "shard-store sampling diverged from the in-RAM sampler";
}

TEST(ShardStoreTest, HaloCachedReadsMatchDirectReads) {
  graph::HeteroGraph graph = TinyGraph();
  ShardedGraph store = WriteAndOpen(graph, TempDir("halo_store"), 4);
  ShardedGraphView direct(store);
  // Capacity above the remote-node count: a sequential scan with an
  // undersized LRU always evicts a row before revisiting it (scan thrash),
  // so an over-provisioned cache is what makes second-pass hits certain.
  ShardedGraphView cached(store, /*halo_cache_rows=*/512);
  cached.SetHomeShard(0);

  for (int pass = 0; pass < 2; ++pass) {
    for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
      const float* a = direct.feature_row(v);
      const float* b = cached.feature_row(v);
      ASSERT_EQ(std::memcmp(a, b, sizeof(float) * store.feature_dim()), 0)
          << v;
    }
  }
  const HaloCacheStats* stats = cached.halo_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->misses, 0);
  EXPECT_GT(stats->hits, 0);  // second pass re-reads cached remote rows
  EXPECT_EQ(direct.halo_stats(), nullptr);
}

TEST(HaloCacheTest, LruEvictionAndStats) {
  const int64_t dim = 4;
  HaloCache cache(/*capacity_rows=*/2, dim);
  const float row_a[dim] = {1, 2, 3, 4};
  const float row_b[dim] = {5, 6, 7, 8};
  const float row_c[dim] = {9, 10, 11, 12};

  EXPECT_EQ(cache.Get(1), nullptr);  // miss
  const float* a = cache.Insert(1, row_a);
  EXPECT_EQ(std::memcmp(a, row_a, sizeof(row_a)), 0);
  cache.Insert(2, row_b);
  EXPECT_NE(cache.Get(1), nullptr);  // hit; 1 becomes most-recent
  cache.Insert(3, row_c);            // evicts 2 (LRU), not 1

  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  const float* c = cache.Get(3);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(std::memcmp(c, row_c, sizeof(row_c)), 0);

  const HaloCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_GT(stats.HitRate(), 0.5);
}

datasets::SyntheticGraphSpec StreamSpec() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "stream-test";
  spec.node_types = {{"paper", 1200, true}, {"author", 700, false}};
  spec.edge_types = {{"cites", "paper", "paper", 2.5, 0.8},
                     {"writes", "author", "paper", 3.0, 0.7}};
  spec.num_classes = 4;
  spec.feature_dim = 12;
  spec.seed = 33;
  return spec;
}

TEST(SyntheticStreamTest, StreamedStoreOpensWithExpectedTotals) {
  const std::string dir = TempDir("stream_store");
  datasets::StreamShardingOptions options;
  options.num_shards = 5;
  auto stats = datasets::StreamSyntheticShards(StreamSpec(), dir, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->TotalNodes(), 1900);
  EXPECT_GT(stats->TotalHalfEdges(), 0);

  auto store = ShardedGraph::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->num_nodes(), 1900);
  EXPECT_EQ(store->num_shards(), 5);
  EXPECT_EQ(store->feature_dim(), 12);
  EXPECT_EQ(store->manifest().num_half_edges, stats->TotalHalfEdges());

  // Adjacency invariants: neighbors sorted by (id, edge type), no
  // self-loops, each half-edge mirrored on the other endpoint.
  int64_t checked = 0;
  for (graph::NodeId v = 0; v < store->num_nodes() && checked < 400; ++v) {
    const graph::Csr::NeighborSpan span = store->neighbors(v);
    for (int64_t i = 0; i < span.size; ++i, ++checked) {
      EXPECT_NE(span.neighbors[i], v);
      if (i > 0) {
        EXPECT_TRUE(span.neighbors[i - 1] < span.neighbors[i] ||
                    (span.neighbors[i - 1] == span.neighbors[i] &&
                     span.edge_types[i - 1] <= span.edge_types[i]))
            << v;
      }
      const graph::Csr::NeighborSpan back = store->neighbors(span.neighbors[i]);
      bool mirrored = false;
      for (int64_t j = 0; j < back.size; ++j) {
        if (back.neighbors[j] == v && back.edge_types[j] == span.edge_types[i]) {
          mirrored = true;
          break;
        }
      }
      EXPECT_TRUE(mirrored) << v << " -> " << span.neighbors[i];
    }
  }
  EXPECT_GT(checked, 0);
}

// Streaming generation is defined by pure per-node seed derivations, so the
// emitted files are a function of (spec, num_shards) only — the same bytes
// for any thread count and on every rerun.
TEST(SyntheticStreamTest, StoreBytesAreSeedAndThreadCountInvariant) {
  const datasets::SyntheticGraphSpec spec = StreamSpec();
  datasets::StreamShardingOptions options;
  options.num_shards = 4;

  const std::string dir_a = TempDir("stream_det_a");
  options.num_threads = 1;
  ASSERT_TRUE(datasets::StreamSyntheticShards(spec, dir_a, options).ok());

  const std::string dir_b = TempDir("stream_det_b");
  options.num_threads = 4;
  ASSERT_TRUE(datasets::StreamSyntheticShards(spec, dir_b, options).ok());

  const std::string dir_c = TempDir("stream_det_c");
  options.num_threads = 1;
  ASSERT_TRUE(datasets::StreamSyntheticShards(spec, dir_c, options).ok());

  std::vector<std::string> files = {ManifestFileName()};
  for (int32_t s = 0; s < options.num_shards; ++s) {
    files.push_back(ShardFileName(s));
  }
  for (const std::string& file : files) {
    const std::string a = ReadFileBytes(dir_a + "/" + file);
    EXPECT_EQ(a, ReadFileBytes(dir_b + "/" + file))
        << file << " differs across thread counts";
    EXPECT_EQ(a, ReadFileBytes(dir_c + "/" + file))
        << file << " differs across reruns";
    EXPECT_FALSE(a.empty());
  }
}

TEST(SyntheticStreamTest, CommunityAssignmentIsAPureFunction) {
  const int32_t a = datasets::StreamCommunityOf(33, 4, 17);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(datasets::StreamCommunityOf(33, 4, 17), a);
  }
  EXPECT_GE(a, 0);
  EXPECT_LT(a, 4);
  // Different seeds decorrelate assignments for at least some node.
  bool any_differs = false;
  for (graph::NodeId v = 0; v < 64 && !any_differs; ++v) {
    any_differs = datasets::StreamCommunityOf(33, 4, v) !=
                  datasets::StreamCommunityOf(34, 4, v);
  }
  EXPECT_TRUE(any_differs);
}

// The headline corruption matrix, mirroring serialize_test.cc: every
// truncation and every single-byte flip of the manifest AND of a shard file
// must yield a non-OK Status from Open — typed errors, never an abort.
TEST(ShardStoreCorruptionTest, EveryTruncationAndByteFlipIsDetected) {
  datasets::SyntheticGraphSpec spec = TinySpec();
  spec.node_types = {{"doc", 14, true}, {"tag", 6, false}};
  spec.feature_dim = 4;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  ASSERT_TRUE(graph.ok());
  const std::string dir = TempDir("corrupt_store");
  WriteShardsOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(WriteShards(*graph, dir, options).ok());
  ASSERT_TRUE(ShardedGraph::Open(dir).ok());

  for (const std::string& name : {ManifestFileName(), ShardFileName(1)}) {
    const std::string path = dir + "/" + name;
    const std::string intact = ReadFileBytes(path);
    ASSERT_GT(intact.size(), 40u) << name;

    for (size_t cut = 0; cut < intact.size(); ++cut) {
      WriteFileBytes(path, intact.substr(0, cut));
      EXPECT_FALSE(ShardedGraph::Open(dir).ok())
          << name << " truncated to " << cut << " bytes opened successfully";
    }
    for (size_t pos = 0; pos < intact.size(); ++pos) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xff}}) {
        std::string corrupt = intact;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
        WriteFileBytes(path, corrupt);
        EXPECT_FALSE(ShardedGraph::Open(dir).ok())
            << name << " byte " << pos << " flipped with mask "
            << static_cast<int>(flip) << " opened successfully";
      }
    }
    // Trailing garbage after a valid footer is also rejected.
    WriteFileBytes(path, intact + "x");
    EXPECT_FALSE(ShardedGraph::Open(dir).ok()) << name;

    WriteFileBytes(path, intact);
    ASSERT_TRUE(ShardedGraph::Open(dir).ok()) << name << " not restored";
  }

  // A missing shard file is a typed error too.
  ASSERT_EQ(std::remove((dir + "/" + ShardFileName(0)).c_str()), 0);
  EXPECT_FALSE(ShardedGraph::Open(dir).ok());
}

// Structural validation (no checksum pass) must still reject every
// truncation — section bounds are checked against the real file size — and
// must never crash on arbitrary single-byte flips, even though a flip in
// feature bytes is undetectable without the CRC.
TEST(ShardStoreCorruptionTest, StructuralValidationNeverCrashes) {
  datasets::SyntheticGraphSpec spec = TinySpec();
  spec.node_types = {{"doc", 14, true}, {"tag", 6, false}};
  spec.feature_dim = 4;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  ASSERT_TRUE(graph.ok());
  const std::string dir = TempDir("corrupt_noverify");
  WriteShardsOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(WriteShards(*graph, dir, options).ok());

  ShardedGraphOptions open_options;
  open_options.verify_checksums = false;

  const std::string path = dir + "/" + ShardFileName(0);
  const std::string intact = ReadFileBytes(path);
  for (size_t cut = 0; cut < intact.size(); ++cut) {
    WriteFileBytes(path, intact.substr(0, cut));
    EXPECT_FALSE(ShardedGraph::Open(dir, open_options).ok())
        << "truncation to " << cut << " bytes passed structural validation";
  }
  for (size_t pos = 0; pos < intact.size(); ++pos) {
    std::string corrupt = intact;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0xff);
    WriteFileBytes(path, corrupt);
    // Must not crash; detection is best-effort without the CRC pass.
    (void)ShardedGraph::Open(dir, open_options);
  }
  WriteFileBytes(path, intact);
  ASSERT_TRUE(ShardedGraph::Open(dir, open_options).ok());
}

// Writes an edgeless store under `manifest` (its resolver and shard count
// set by the caller): shard s holds the next sizes[s] consecutive ids.
void WriteEdgelessStore(const std::string& dir,
                        const std::vector<int64_t>& sizes, Manifest manifest) {
  constexpr int64_t kFeatureDim = 2;
  WIDEN_CHECK_OK(EnsureDirectory(dir));
  const std::vector<float> features(kFeatureDim, 0.5f);
  graph::NodeId next = 0;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ShardFileWriter writer(static_cast<int32_t>(s), manifest.num_shards,
                           kFeatureDim, /*has_labels=*/false);
    for (int64_t i = 0; i < sizes[s]; ++i) {
      writer.AddNode(next++, /*node_type=*/0, /*label=*/0, nullptr, nullptr,
                     /*degree=*/0, features.data());
    }
    const std::string path = dir + "/" + ShardFileName(static_cast<int32_t>(s));
    WIDEN_CHECK_OK(
        writer.Finish(path, [](graph::NodeId) { return 0; }).status());
  }
  manifest.num_nodes = next;
  manifest.num_half_edges = 0;
  manifest.feature_dim = kFeatureDim;
  manifest.schema = graph::GraphSchema();
  manifest.schema.AddNodeType("v");
  WIDEN_CHECK_OK(WriteManifestFile(dir, manifest));
}

// Open's verdict on `dir`, with the checksum pass on and off.
std::vector<Status> OpenBothWays(const std::string& dir) {
  std::vector<Status> verdicts;
  for (const bool verify : {true, false}) {
    ShardedGraphOptions options;
    options.verify_checksums = verify;
    verdicts.push_back(ShardedGraph::Open(dir, options).status());
  }
  return verdicts;
}

// Locate() trusts the resolver's local index, so a shard whose node count
// disagrees with it would be read past its arrays.
TEST(ShardStoreCorruptionTest, ShardSizesMustMatchUniformBlocks) {
  Manifest manifest;
  manifest.num_shards = 2;
  manifest.partition_kind = PartitionKind::kUniformBlocks;
  manifest.block_size = 4;

  const std::string good = TempDir("uniform_4_4");
  WriteEdgelessStore(good, {4, 4}, manifest);
  for (const Status& status : OpenBothWays(good)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  // Same totals, wrong split: Locate(3) would say local 3 of a 3-node shard.
  const std::string bad = TempDir("uniform_3_5");
  WriteEdgelessStore(bad, {3, 5}, manifest);
  for (const Status& status : OpenBothWays(bad)) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(ShardStoreCorruptionTest, ShardSizesMustMatchExplicitMap) {
  Manifest manifest;
  manifest.num_shards = 2;
  manifest.partition_kind = PartitionKind::kExplicitMap;
  manifest.shard_of = {0, 0, 0, 1, 1, 1, 1, 1};
  manifest.local_of = {0, 1, 2, 0, 1, 2, 3, 4};

  const std::string good = TempDir("explicit_3_5");
  WriteEdgelessStore(good, {3, 5}, manifest);
  for (const Status& status : OpenBothWays(good)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  // The map puts 3 nodes in shard 0, the files 4.
  const std::string split = TempDir("explicit_4_4");
  WriteEdgelessStore(split, {4, 4}, manifest);
  for (const Status& status : OpenBothWays(split)) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }

  // Counts agree, but node 2's local index is past its 3-node shard.
  manifest.local_of[2] = 3;
  const std::string past = TempDir("explicit_local_past_end");
  WriteEdgelessStore(past, {3, 5}, manifest);
  for (const Status& status : OpenBothWays(past)) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(MappedFileTest, OpensEvictsAndReportsResidency) {
  const std::string path = TempDir("mapped_file.bin");
  std::string payload(1 << 20, '\x5a');
  WriteFileBytes(path, payload);

  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->size(), static_cast<int64_t>(payload.size()));
  // Touch every page, then evict: pointers stay valid, residency drops.
  int64_t sum = 0;
  for (int64_t i = 0; i < mapped->size(); i += 4096) sum += mapped->data()[i];
  EXPECT_GT(sum, 0);
  EXPECT_GT(mapped->ResidentBytes(), 0);
  mapped->Evict();
  EXPECT_EQ(mapped->data()[0], 0x5a);  // still readable after MADV_DONTNEED

  EXPECT_FALSE(MappedFile::Open(TempDir("no_such_file.bin")).ok());
}

TEST(MappedFileTest, ReadAtMatchesTheMappingAndChecksBounds) {
  const std::string path = TempDir("mapped_readat.bin");
  std::string payload(1 << 16, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  WriteFileBytes(path, payload);

  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  // Interior, start-of-file, and end-of-file reads all return the exact
  // mapped bytes (ReadAt and the mapping view the same file).
  std::vector<uint8_t> buf(1000);
  for (int64_t offset : {int64_t{0}, int64_t{4097}, mapped->size() - 1000}) {
    ASSERT_TRUE(mapped->ReadAt(offset, 1000, buf.data()));
    EXPECT_EQ(std::memcmp(buf.data(), mapped->data() + offset, 1000), 0)
        << "offset " << offset;
  }
  ASSERT_TRUE(mapped->ReadAt(mapped->size(), 0, buf.data()));  // empty tail

  // Out-of-range requests fail instead of reading garbage.
  EXPECT_FALSE(mapped->ReadAt(-1, 16, buf.data()));
  EXPECT_FALSE(mapped->ReadAt(0, -1, buf.data()));
  EXPECT_FALSE(mapped->ReadAt(mapped->size() - 8, 16, buf.data()));
  EXPECT_FALSE(mapped->ReadAt(mapped->size() + 1, 0, buf.data()));
}

}  // namespace
}  // namespace widen::storage
