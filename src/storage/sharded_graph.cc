#include "storage/sharded_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace widen::storage {
namespace {

constexpr uint64_t kHeaderBytes = 4 + 4 * sizeof(uint32_t) +
                                  4 * sizeof(int64_t) + sizeof(uint32_t);
constexpr uint64_t kSectionEntryBytes = 32;
constexpr uint64_t kFooterBytes = 4 + sizeof(uint64_t) + sizeof(uint32_t);

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(
      StrCat("corrupt shard file ", path, ": ", what));
}

// Streaming footer-CRC verification through a small read() buffer — NOT the
// mmap — so checking a multi-GB store never pages it into the process.
Status VerifyFileChecksum(const std::string& path) {
  WIDEN_ASSIGN_OR_RETURN(int64_t file_size, FileSize(path));
  if (static_cast<uint64_t>(file_size) < 4 + kFooterBytes) {
    return Corrupt(path, "file too small");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  const uint64_t payload = static_cast<uint64_t>(file_size) - kFooterBytes;
  std::vector<char> buf(256 << 10);
  uint32_t crc = 0;
  uint64_t left = payload;
  while (left > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(left, buf.size()));
    if (std::fread(buf.data(), 1, want, f) != want) {
      std::fclose(f);
      return Corrupt(path, "short read");
    }
    crc = Crc32cExtend(crc, buf.data(), want);
    left -= want;
  }
  char footer[kFooterBytes];
  const bool footer_ok =
      std::fread(footer, 1, kFooterBytes, f) == kFooterBytes;
  std::fclose(f);
  if (!footer_ok) return Corrupt(path, "short read");
  if (std::memcmp(footer, kFooterMagic, 4) != 0) {
    return Corrupt(path, "bad footer magic");
  }
  uint64_t declared_size = 0;
  uint32_t declared_crc = 0;
  std::memcpy(&declared_size, footer + 4, sizeof(declared_size));
  std::memcpy(&declared_crc, footer + 12, sizeof(declared_crc));
  if (declared_size != payload) return Corrupt(path, "payload size mismatch");
  if (declared_crc != crc) return Corrupt(path, "checksum mismatch");
  return Status::OK();
}

// Parses and structurally validates one mapped shard file, filling `out`'s
// typed pointers. Touches only the header/table pages.
Status ParseShard(const std::string& path, const Manifest& manifest,
                  int32_t expect_shard, ShardedGraph::Shard* out) {
  const uint8_t* base = out->file.data();
  const uint64_t size = static_cast<uint64_t>(out->file.size());
  if (size < kHeaderBytes + kFooterBytes) {
    return Corrupt(path, "file too small");
  }
  if (std::memcmp(base, kShardMagic, 4) != 0) {
    return Corrupt(path, "bad magic");
  }
  ByteReader r(reinterpret_cast<const char*>(base) + 4, size - 4);
  ShardHeader h;
  uint32_t header_crc = 0;
  if (!r.ReadScalar(&h.version) || !r.ReadScalar(&h.shard_id) ||
      !r.ReadScalar(&h.num_shards) || !r.ReadScalar(&h.section_count) ||
      !r.ReadScalar(&h.num_local_nodes) || !r.ReadScalar(&h.num_half_edges) ||
      !r.ReadScalar(&h.num_halo_nodes) || !r.ReadScalar(&h.feature_dim)) {
    return Corrupt(path, "truncated header");
  }
  if (!r.ReadScalar(&header_crc) ||
      header_crc != Crc32c(base, kHeaderBytes - sizeof(uint32_t))) {
    return Corrupt(path, "header checksum mismatch");
  }
  if (h.version != kShardFormatVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported shard format version ", h.version, " in ", path));
  }
  if (h.shard_id != static_cast<uint32_t>(expect_shard) ||
      h.num_shards != static_cast<uint32_t>(manifest.num_shards)) {
    return Corrupt(path, "shard identity mismatch with manifest");
  }
  if (h.num_local_nodes < 0 || h.num_half_edges < 0 || h.num_halo_nodes < 0 ||
      h.feature_dim != manifest.feature_dim ||
      h.num_local_nodes > manifest.num_nodes ||
      h.num_half_edges > manifest.num_half_edges) {
    return Corrupt(path, "implausible header counts");
  }

  // The expected section sequence is fixed by the writer.
  const bool has_labels = manifest.num_classes > 0;
  std::vector<std::pair<SectionKind, uint64_t>> expected;
  expected.emplace_back(SectionKind::kGlobalIds,
                        static_cast<uint64_t>(h.num_local_nodes) * 4);
  expected.emplace_back(SectionKind::kNodeTypes,
                        static_cast<uint64_t>(h.num_local_nodes) * 4);
  if (has_labels) {
    expected.emplace_back(SectionKind::kLabels,
                          static_cast<uint64_t>(h.num_local_nodes) * 4);
  }
  expected.emplace_back(SectionKind::kCsrOffsets,
                        static_cast<uint64_t>(h.num_local_nodes + 1) * 8);
  expected.emplace_back(SectionKind::kCsrNeighbors,
                        static_cast<uint64_t>(h.num_half_edges) * 4);
  expected.emplace_back(SectionKind::kCsrEdgeTypes,
                        static_cast<uint64_t>(h.num_half_edges) * 4);
  expected.emplace_back(SectionKind::kFeatures,
                        static_cast<uint64_t>(h.num_local_nodes) *
                            static_cast<uint64_t>(h.feature_dim) * 4);
  expected.emplace_back(SectionKind::kHaloIds,
                        static_cast<uint64_t>(h.num_halo_nodes) * 4);
  if (h.section_count != expected.size()) {
    return Corrupt(path, "unexpected section count");
  }

  const uint64_t table_bytes =
      h.section_count * kSectionEntryBytes + sizeof(uint32_t);
  if (size < kHeaderBytes + table_bytes + kFooterBytes) {
    return Corrupt(path, "truncated section table");
  }
  const uint8_t* table = base + kHeaderBytes;
  uint32_t table_crc = 0;
  std::memcpy(&table_crc, table + h.section_count * kSectionEntryBytes,
              sizeof(table_crc));
  if (table_crc != Crc32c(table, h.section_count * kSectionEntryBytes)) {
    return Corrupt(path, "section table checksum mismatch");
  }

  const uint64_t payload_end = size - kFooterBytes;
  out->num_local_nodes = h.num_local_nodes;
  out->num_half_edges = h.num_half_edges;
  out->num_halo_nodes = h.num_halo_nodes;
  uint64_t sections_end = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    SectionEntry e;
    const uint8_t* row = table + i * kSectionEntryBytes;
    std::memcpy(&e.kind, row, 4);
    std::memcpy(&e.reserved, row + 4, 4);
    std::memcpy(&e.offset, row + 8, 8);
    std::memcpy(&e.size, row + 16, 8);
    std::memcpy(&e.crc, row + 24, 4);
    std::memcpy(&e.pad, row + 28, 4);
    if (e.kind != static_cast<uint32_t>(expected[i].first) ||
        e.reserved != 0 || e.pad != 0) {
      return Corrupt(path, StrCat("bad section entry ", i));
    }
    if (e.size != expected[i].second) {
      return Corrupt(path, StrCat("section ", i, " size mismatch"));
    }
    if (e.offset % kSectionAlignment != 0 || e.offset > payload_end ||
        e.size > payload_end - e.offset) {
      return Corrupt(path, StrCat("section ", i, " out of bounds"));
    }
    sections_end = std::max(sections_end, e.offset + e.size);
    const uint8_t* p = e.size > 0 ? base + e.offset : nullptr;
    switch (expected[i].first) {
      case SectionKind::kGlobalIds:
        out->global_ids = reinterpret_cast<const int32_t*>(p);
        break;
      case SectionKind::kNodeTypes:
        out->node_types = reinterpret_cast<const int32_t*>(p);
        break;
      case SectionKind::kLabels:
        out->labels = reinterpret_cast<const int32_t*>(p);
        break;
      case SectionKind::kCsrOffsets:
        // Non-null even for an empty shard: offsets has n + 1 entries.
        out->csr_offsets = reinterpret_cast<const int64_t*>(base + e.offset);
        break;
      case SectionKind::kCsrNeighbors:
        out->csr_neighbors = reinterpret_cast<const graph::NodeId*>(p);
        break;
      case SectionKind::kCsrEdgeTypes:
        out->csr_edge_types = reinterpret_cast<const graph::EdgeTypeId*>(p);
        break;
      case SectionKind::kFeatures:
        out->features = reinterpret_cast<const float*>(p);
        out->features_file_offset =
            e.size > 0 ? static_cast<int64_t>(e.offset) : -1;
        break;
      case SectionKind::kHaloIds:
        out->halo_ids = reinterpret_cast<const int32_t*>(p);
        break;
    }
  }

  // Structural exact-size check: the writer pads the payload to the
  // alignment boundary and appends exactly one footer, so the file size is
  // fully determined by the section table. This catches footer truncation
  // and trailing garbage even when the CRC pass is skipped.
  const uint64_t aligned_end = (sections_end + kSectionAlignment - 1) /
                               kSectionAlignment * kSectionAlignment;
  if (payload_end != aligned_end) {
    return Corrupt(path, "file size disagrees with section table");
  }
  if (std::memcmp(base + payload_end, kFooterMagic, 4) != 0) {
    return Corrupt(path, "bad footer magic");
  }
  uint64_t recorded_payload = 0;
  std::memcpy(&recorded_payload, base + payload_end + 4,
              sizeof(recorded_payload));
  if (recorded_payload != payload_end) {
    return Corrupt(path, "footer size disagrees with file size");
  }
  return Status::OK();
}

// How many nodes the manifest's resolver maps to each shard. Locate() indexes
// a shard's arrays with the resolver's local index, so each shard file must
// hold exactly this many nodes, and every explicit local index must fall
// inside its shard.
StatusOr<std::vector<int64_t>> ResolverShardSizes(const Manifest& manifest,
                                                  const std::string& dir) {
  std::vector<int64_t> sizes(static_cast<size_t>(manifest.num_shards), 0);
  if (manifest.partition_kind == PartitionKind::kUniformBlocks) {
    // Shard s holds min(block_size, num_nodes - s * block_size), floored at
    // 0, written without the product a corrupt block size could overflow.
    int64_t left = manifest.num_nodes;
    for (int64_t& size : sizes) {
      size = std::min(left, manifest.block_size);
      left -= size;
    }
    return sizes;
  }
  for (const int32_t s : manifest.shard_of) ++sizes[static_cast<size_t>(s)];
  for (size_t v = 0; v < manifest.local_of.size(); ++v) {
    const size_t s = static_cast<size_t>(manifest.shard_of[v]);
    if (manifest.local_of[v] >= sizes[s]) {
      return Status::InvalidArgument(
          StrCat("corrupt shard store ", dir, ": node ", v, " has local index ",
                 manifest.local_of[v], " in shard ", s, " of ", sizes[s],
                 " nodes"));
    }
  }
  return sizes;
}

}  // namespace

StatusOr<ShardedGraph> ShardedGraph::Open(const std::string& dir,
                                          const ShardedGraphOptions& options) {
  const std::string manifest_path = dir + "/" + ManifestFileName();
  WIDEN_ASSIGN_OR_RETURN(std::string manifest_bytes,
                         ReadFileToString(manifest_path));
  WIDEN_ASSIGN_OR_RETURN(Manifest manifest, DecodeManifest(manifest_bytes));

  WIDEN_ASSIGN_OR_RETURN(const std::vector<int64_t> shard_sizes,
                         ResolverShardSizes(manifest, dir));

  ShardedGraph g;
  g.manifest_ = std::move(manifest);
  g.shards_ = std::make_unique<std::vector<Shard>>();
  g.shards_->reserve(static_cast<size_t>(g.manifest_.num_shards));

  int64_t total_half_edges = 0;
  for (int32_t s = 0; s < g.manifest_.num_shards; ++s) {
    const std::string path = dir + "/" + ShardFileName(s);
    if (options.verify_checksums) {
      WIDEN_RETURN_IF_ERROR(VerifyFileChecksum(path));
    }
    Shard shard;
    WIDEN_ASSIGN_OR_RETURN(shard.file, MappedFile::Open(path));
    WIDEN_RETURN_IF_ERROR(ParseShard(path, g.manifest_, s, &shard));
    if (shard.num_local_nodes != shard_sizes[static_cast<size_t>(s)]) {
      return Corrupt(path, StrCat("holds ", shard.num_local_nodes,
                                  " nodes but the manifest maps ",
                                  shard_sizes[static_cast<size_t>(s)],
                                  " to it"));
    }
    total_half_edges += shard.num_half_edges;
    g.shards_->push_back(std::move(shard));
  }
  // The per-shard node counts above sum to num_nodes by construction.
  if (total_half_edges != g.manifest_.num_half_edges) {
    return Status::InvalidArgument(
        StrCat("corrupt shard store ", dir,
               ": shard half-edge total disagrees with manifest (",
               total_half_edges, " vs ", g.manifest_.num_half_edges, ")"));
  }
  return g;
}

int64_t ShardedGraph::ResidentBytes() const {
  int64_t total = 0;
  for (const Shard& s : *shards_) total += s.file.ResidentBytes();
  return total;
}

bool ShardedGraph::ReadFeatureRowInto(ShardLocation loc, float* dst) const {
  const Shard& sh = shard(loc.shard);
  if (sh.features_file_offset < 0) return false;
  const int64_t row_bytes = manifest_.feature_dim * 4;
  return sh.file.ReadAt(
      sh.features_file_offset + static_cast<int64_t>(loc.local) * row_bytes,
      row_bytes, dst);
}

ShardedGraphView::ShardedGraphView(const ShardedGraph& store,
                                   int64_t halo_cache_rows)
    : store_(&store) {
  if (halo_cache_rows > 0 && store.feature_dim() > 0) {
    halo_cache_ =
        std::make_unique<HaloCache>(halo_cache_rows, store.feature_dim());
    fill_row_.resize(static_cast<size_t>(store.feature_dim()));
  }
}

const float* ShardedGraphView::feature_row(graph::NodeId v) const {
  const ShardLocation loc = store_->Locate(v);
  const ShardedGraph::Shard& sh = store_->shard(loc.shard);
  const float* direct =
      sh.features != nullptr
          ? sh.features +
                static_cast<int64_t>(loc.local) * store_->feature_dim()
          : nullptr;
  if (halo_cache_ == nullptr || home_shard_ < 0 || loc.shard == home_shard_ ||
      direct == nullptr) {
    return direct;
  }
  WIDEN_METRIC_COUNTER(hits, "widen_storage_halo_hits_total",
                       "Remote feature reads served from the halo cache");
  WIDEN_METRIC_COUNTER(misses, "widen_storage_halo_misses_total",
                       "Remote feature reads that had to touch the mmap");
  WIDEN_METRIC_COUNTER(evictions, "widen_storage_halo_evictions_total",
                       "Halo cache rows evicted to admit a new row");
  if (const float* cached = halo_cache_->Get(v)) {
    hits->Increment();
    return cached;
  }
  misses->Increment();
  obs::StageScope stage(obs::Stage::kHaloFill);
  const int64_t evictions_before = halo_cache_->stats().evictions;
  // Fill via pread, not through the mapping: a pointer read here would
  // fault the kernel's whole fault-around window (64 KB) of the remote
  // shard per miss, paging entire shards back in and defeating eviction.
  // The bytes are identical either way (same file, same offsets), so the
  // bitwise-parity contract is unaffected; the mmap read is only a
  // fallback if the pread fails.
  const float* src =
      store_->ReadFeatureRowInto(loc, fill_row_.data()) ? fill_row_.data()
                                                        : direct;
  const float* out = halo_cache_->Insert(v, src);
  if (halo_cache_->stats().evictions != evictions_before) {
    evictions->Increment();
  }
  return out;
}

void PublishStorageGauges(const ShardedGraph& store,
                          const ShardedGraphView* view) {
  WIDEN_METRIC_GAUGE(resident, "widen_storage_resident_bytes",
                     "Bytes of the shard mappings warm in the page cache");
  resident->Set(static_cast<double>(store.ResidentBytes()));
  if (view != nullptr) {
    if (const HaloCacheStats* stats = view->halo_stats()) {
      WIDEN_METRIC_GAUGE(hit_rate, "widen_storage_halo_hit_rate",
                         "Halo cache hits / (hits + misses), lifetime");
      hit_rate->Set(stats->HitRate());
    }
  }
}

}  // namespace widen::storage
