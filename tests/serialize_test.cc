#include "tensor/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/widen_model.h"
#include "datasets/splits.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/init.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "util/random.h"

namespace widen::tensor {
namespace {

std::string TempPath(const char* name) {
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
  ASSERT_TRUE(out.good()) << path;
}

// Appends a little-endian scalar; for hand-building bundle bytes.
template <typename T>
void Append(std::string* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

TEST(SerializeTest, RoundTripsBundle) {
  Rng rng(1);
  NamedTensors bundle = {
      {"weights", NormalInit(Shape::Matrix(3, 4), rng, 1.0f)},
      {"bias", Tensor::FromVector(Shape::Matrix(1, 4), {1, 2, 3, 4})},
      {"scalar", Tensor::Scalar(42.0f)},
  };
  const std::string path = TempPath("bundle.wdnt");
  ASSERT_TRUE(SaveTensors(path, bundle).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < bundle.size(); ++i) {
    EXPECT_EQ((*loaded)[i].first, bundle[i].first);
    ASSERT_TRUE((*loaded)[i].second.shape() == bundle[i].second.shape());
    for (int64_t j = 0; j < bundle[i].second.size(); ++j) {
      EXPECT_FLOAT_EQ((*loaded)[i].second.data()[j],
                      bundle[i].second.data()[j]);
    }
    EXPECT_FALSE((*loaded)[i].second.requires_grad());
  }
}

TEST(SerializeTest, RejectsBadBundles) {
  Rng rng(2);
  Tensor t = NormalInit(Shape::Matrix(2, 2), rng, 1.0f);
  EXPECT_FALSE(SaveTensors(TempPath("dup.wdnt"), {{"a", t}, {"a", t}}).ok());
  EXPECT_FALSE(SaveTensors(TempPath("noname.wdnt"), {{"", t}}).ok());
  EXPECT_FALSE(SaveTensors("/nonexistent-dir/x.wdnt", {{"a", t}}).ok());
  EXPECT_FALSE(LoadTensors(TempPath("missing.wdnt")).ok());
  // Not a bundle.
  const std::string garbage = TempPath("garbage.wdnt");
  std::FILE* f = std::fopen(garbage.c_str(), "wb");
  std::fputs("hello world", f);
  std::fclose(f);
  auto loaded = LoadTensors(garbage);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // A bundle that is intact except that its header claims version 1 or 3.
  // The footer CRC is recomputed, so only the version check can reject it.
  const std::string good = TempPath("good.wdnt");
  ASSERT_TRUE(SaveTensors(good, {{"a", t}}).ok());
  const std::string intact = ReadFileBytes(good);
  constexpr size_t kFooterBytes = 4 + 8 + 4;  // "WDNF", count, file CRC
  for (uint32_t version : {1u, 3u}) {
    std::string bytes = intact;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    const uint32_t crc = Crc32c(bytes.data(), bytes.size() - kFooterBytes);
    std::memcpy(bytes.data() + bytes.size() - sizeof(crc), &crc, sizeof(crc));
    const std::string path = TempPath("badversion.wdnt");
    WriteFileBytes(path, bytes);
    auto other = LoadTensors(path);
    EXPECT_FALSE(other.ok()) << "version " << version;
    EXPECT_EQ(other.status().code(), StatusCode::kInvalidArgument)
        << "version " << version;
  }
}

TEST(SerializeTest, RoundTripsBlobsAlongsideTensors) {
  Bundle bundle;
  bundle.tensors = {{"w", Tensor::FromVector(Shape::Matrix(2, 2),
                                             {1, 2, 3, 4})}};
  std::string binary("\x00\x01\xff payload\n\twith\0 bytes", 24);
  bundle.blobs = {{"state", binary}, {"empty", ""}};
  const std::string path = TempPath("blobs.wdnt");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());

  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->tensors.size(), 1u);
  ASSERT_EQ(loaded->blobs.size(), 2u);
  EXPECT_EQ(loaded->blobs[0].first, "state");
  EXPECT_EQ(loaded->blobs[0].second, binary);
  EXPECT_EQ(loaded->blobs[1].second, "");

  // LoadTensors on the same file skips blob records.
  auto tensors_only = LoadTensors(path);
  ASSERT_TRUE(tensors_only.ok());
  ASSERT_EQ(tensors_only->size(), 1u);
  EXPECT_EQ((*tensors_only)[0].first, "w");

  // Duplicate names across the tensor/blob namespaces are rejected.
  Bundle clash;
  clash.tensors = {{"x", Tensor::Scalar(1.0f)}};
  clash.blobs = {{"x", "bytes"}};
  EXPECT_FALSE(SaveBundle(TempPath("clash.wdnt"), clash).ok());
}

TEST(SerializeTest, RejectsOverflowingElementCounts) {
  // A v2 tensor record whose dimensions multiply past int64 (and far past
  // the element cap). The element count is checked before any data is read
  // or any checksum is verified, so a corrupt file can never size a vector
  // with a wrapped-around count.
  auto header = [](std::string* bytes, const char* name, uint32_t rank) {
    bytes->append("WDNT", 4);
    Append<uint32_t>(bytes, 2);  // version
    Append<uint64_t>(bytes, 1);  // record count
    Append<uint8_t>(bytes, 0);   // kind: tensor
    Append<uint32_t>(bytes, 1);  // name length
    bytes->append(name, 1);
    Append<uint32_t>(bytes, rank);
  };
  std::string bytes;
  header(&bytes, "x", 3);
  Append<uint64_t>(&bytes, 1ull << 31);
  Append<uint64_t>(&bytes, 1ull << 31);
  Append<uint64_t>(&bytes, 1ull << 31);
  const std::string path = TempPath("overflow.wdnt");
  WriteFileBytes(path, bytes);

  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A single huge dimension within u64 range but above the cap also fails.
  std::string big;
  header(&big, "y", 1);
  Append<uint64_t>(&big, 1ull << 30);  // > element cap, < dim cap
  const std::string big_path = TempPath("bigdim.wdnt");
  WriteFileBytes(big_path, big);
  EXPECT_FALSE(LoadTensors(big_path).ok());
}

// The headline corruption matrix: an intact v2 bundle is taken apart byte by
// byte — every possible truncation and every single-byte flip must yield a
// non-OK Status (never an abort, never silently wrong data).
TEST(SerializeTest, EveryTruncationAndByteFlipIsDetected) {
  Rng rng(7);
  Bundle bundle;
  bundle.tensors = {
      {"weights", NormalInit(Shape::Matrix(3, 4), rng, 1.0f)},
      {"scalar", Tensor::Scalar(-1.5f)},
  };
  bundle.blobs = {{"blob", std::string("opaque\x00state", 12)}};
  const std::string path = TempPath("matrix.wdnt");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  const std::string intact = ReadFileBytes(path);
  ASSERT_GT(intact.size(), 40u);
  ASSERT_TRUE(LoadBundle(path).ok());

  const std::string mutated = TempPath("mutated.wdnt");
  for (size_t cut = 0; cut < intact.size(); ++cut) {
    WriteFileBytes(mutated, intact.substr(0, cut));
    auto loaded = LoadBundle(mutated);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << cut << " bytes (of "
                              << intact.size() << ") loaded successfully";
  }
  for (size_t pos = 0; pos < intact.size(); ++pos) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xff}}) {
      std::string corrupt = intact;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
      WriteFileBytes(mutated, corrupt);
      auto loaded = LoadBundle(mutated);
      EXPECT_FALSE(loaded.ok())
          << "flipping byte " << pos << " with mask 0x" << std::hex
          << static_cast<int>(flip) << " loaded successfully";
    }
  }
  // Trailing garbage after a valid footer is also rejected.
  WriteFileBytes(mutated, intact + "x");
  EXPECT_FALSE(LoadBundle(mutated).ok());
}

TEST(SerializeTest, SaveIsAtomicUnderCrashWindow) {
  Bundle bundle;
  bundle.tensors = {{"w", Tensor::FromVector(Shape::Matrix(1, 2), {7, 8})}};
  const std::string path = TempPath("atomic.wdnt");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  // No temp file survives a successful save.
  EXPECT_FALSE(FileExists(path + ".tmp"));

  // Simulate a crash between temp-write and rename: a half-written .tmp is
  // lying around. The committed file must still load, and the next save must
  // clobber the stale temp and succeed.
  WriteFileBytes(path + ".tmp", "partial garbage");
  ASSERT_TRUE(LoadBundle(path).ok());
  bundle.tensors[0].second.set(0, 0, 9.0f);
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  auto reloaded = LoadBundle(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FLOAT_EQ(reloaded->tensors[0].second.at(0, 0), 9.0f);
}

TEST(SerializeTest, FindTensorAndCopyInto) {
  NamedTensors bundle = {
      {"x", Tensor::FromVector(Shape::Matrix(1, 2), {5, 6})}};
  ASSERT_TRUE(FindTensor(bundle, "x").ok());
  EXPECT_FALSE(FindTensor(bundle, "y").ok());
  Tensor target(Shape::Matrix(1, 2));
  ASSERT_TRUE(CopyInto(bundle[0].second, target).ok());
  EXPECT_FLOAT_EQ(target.at(0, 1), 6.0f);
  Tensor wrong(Shape::Matrix(2, 1));
  EXPECT_FALSE(CopyInto(bundle[0].second, wrong).ok());
}

TEST(CheckpointTest, RestoredModelPredictsIdentically) {
  datasets::SyntheticGraphSpec spec;
  spec.name = "ckpt";
  spec.node_types = {{"doc", 100, true}, {"tag", 20, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.0, 0.9}};
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.seed = 4;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  ASSERT_TRUE(graph.ok());
  auto split = datasets::MakeTransductiveSplit(*graph, 0.4, 0.1, 3);
  ASSERT_TRUE(split.ok());

  core::WidenConfig config;
  config.embedding_dim = 8;
  config.num_wide_neighbors = 4;
  config.num_deep_neighbors = 4;
  config.num_deep_walks = 2;
  config.max_epochs = 4;
  config.learning_rate = 1e-2f;
  auto trained = core::WidenModel::Create(&*graph, config);
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE((*trained)->Train(split->train).ok());
  const std::string path = TempPath("widen.ckpt");
  ASSERT_TRUE(core::SaveWidenModel(**trained, path).ok());
  std::vector<int32_t> before = (*trained)->Predict(*graph, split->test);

  // Fresh model with DIFFERENT seed: parameters differ until restore.
  core::WidenConfig config2 = config;
  config2.seed = 999;
  auto restored = core::WidenModel::Create(&*graph, config2);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(core::LoadWidenModel(**restored, path).ok());
  std::vector<int32_t> after = (*restored)->Predict(*graph, split->test);
  EXPECT_EQ(before, after);
}

TEST(CheckpointTest, RejectsMismatchedConfig) {
  datasets::SyntheticGraphSpec spec;
  spec.name = "ckpt2";
  spec.node_types = {{"doc", 60, true}, {"tag", 12, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.0, 0.9}};
  spec.num_classes = 2;
  spec.feature_dim = 8;
  spec.seed = 5;
  auto graph = datasets::GenerateSyntheticGraph(spec);
  ASSERT_TRUE(graph.ok());
  core::WidenConfig config;
  config.embedding_dim = 8;
  auto a = core::WidenModel::Create(&*graph, config);
  ASSERT_TRUE(a.ok());
  const std::string path = TempPath("mismatch.ckpt");
  ASSERT_TRUE(core::SaveWidenModel(**a, path).ok());
  config.embedding_dim = 16;  // different shapes
  auto b = core::WidenModel::Create(&*graph, config);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(core::LoadWidenModel(**b, path).ok());
}

}  // namespace
}  // namespace widen::tensor
