// On-disk format of the out-of-core sharded graph store (DESIGN.md §15).
//
// A sharded graph is a directory:
//
//   <dir>/manifest.wshard      graph-wide metadata + global->shard resolver
//   <dir>/shard_00000.wshard   one file per shard
//   <dir>/shard_00001.wshard   ...
//
// Every file is little-endian, versioned, and ends in a footer carrying a
// CRC-32C of all preceding bytes, so any truncation or byte flip is detected
// by one streaming pass at open time (the same Castagnoli polynomial as the
// checkpoint bundles, tensor/serialize.h). Shard payload sections are
// 64-byte aligned so the loader can hand out mmap-backed pointers directly
// as CSR spans and feature rows — the arrays are stored with exactly the
// in-RAM element types (NodeId = int32, EdgeTypeId = int32, int64 offsets,
// float features) and exactly the in-RAM ordering (each adjacency list
// sorted by (global neighbor id, edge type)), which is what makes sampling
// over the mmap bitwise-identical to sampling over a HeteroGraph.

#ifndef WIDEN_STORAGE_SHARD_FORMAT_H_
#define WIDEN_STORAGE_SHARD_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/schema.h"
#include "util/status.h"

namespace widen::storage {

inline constexpr char kManifestMagic[4] = {'W', 'S', 'H', 'M'};
inline constexpr char kShardMagic[4] = {'W', 'S', 'H', 'D'};
inline constexpr char kFooterMagic[4] = {'W', 'S', 'F', '1'};
inline constexpr uint32_t kShardFormatVersion = 1;

/// Payload sections of one shard file, in file order. All are fixed-width
/// arrays over the shard's local nodes / half-edges.
enum class SectionKind : uint32_t {
  kGlobalIds = 1,     // int32[num_local_nodes], ascending global node ids
  kNodeTypes = 2,     // int32[num_local_nodes]
  kLabels = 3,        // int32[num_local_nodes]; present iff graph has labels
  kCsrOffsets = 4,    // int64[num_local_nodes + 1]
  kCsrNeighbors = 5,  // int32[num_half_edges], GLOBAL neighbor ids
  kCsrEdgeTypes = 6,  // int32[num_half_edges]
  kFeatures = 7,      // float[num_local_nodes * feature_dim]
  kHaloIds = 8,       // int32[num_halo_nodes], ascending global ids of
                      // neighbors owned by other shards (boundary set)
};

/// Section payloads start at multiples of this within a shard file, so that
/// every element type above is naturally aligned in the mapping.
inline constexpr uint64_t kSectionAlignment = 64;

/// One row of the shard file's section table.
struct SectionEntry {
  uint32_t kind = 0;      // SectionKind
  uint32_t reserved = 0;  // zero; reject nonzero (future flags)
  uint64_t offset = 0;    // absolute file offset, kSectionAlignment-aligned
  uint64_t size = 0;      // payload bytes
  uint32_t crc = 0;       // CRC-32C of the payload bytes
  uint32_t pad = 0;       // zero
};

/// Fixed-size shard file header (before the section table).
struct ShardHeader {
  uint32_t version = kShardFormatVersion;
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;
  uint32_t section_count = 0;
  int64_t num_local_nodes = 0;
  int64_t num_half_edges = 0;
  int64_t num_halo_nodes = 0;
  int64_t feature_dim = 0;
};

/// How global node ids map to (shard, local index).
enum class PartitionKind : uint8_t {
  /// shard = v / block_size; local = v - shard * block_size. The decoder
  /// rejects a block size that would put a node past the last shard, and
  /// each shard holds min(block_size, num_nodes - shard * block_size) nodes.
  /// Used by the streaming builders; the resolver needs no per-node state.
  kUniformBlocks = 1,
  /// Explicit per-node arrays (GreedyPartition output). The manifest carries
  /// shard_of[] and local_of[]; O(1) lookups at 8 bytes of RAM per node. A
  /// shard holds exactly the nodes mapped to it, each local index below that
  /// count.
  kExplicitMap = 2,
};

/// Parsed manifest: everything needed to open the shards and resolve ids.
struct Manifest {
  uint32_t version = kShardFormatVersion;
  int32_t num_shards = 0;
  int64_t num_nodes = 0;
  int64_t num_half_edges = 0;
  int64_t feature_dim = 0;
  int32_t num_classes = 0;               // 0 = unlabeled graph
  graph::NodeTypeId labeled_node_type = -1;
  graph::GraphSchema schema;
  PartitionKind partition_kind = PartitionKind::kUniformBlocks;
  int64_t block_size = 0;                   // kUniformBlocks
  std::vector<int32_t> shard_of;            // kExplicitMap
  std::vector<int32_t> local_of;            // kExplicitMap
};

/// File name helpers (relative to the store directory).
std::string ManifestFileName();
std::string ShardFileName(int32_t shard_id);

/// Serializes `manifest` to the exact byte layout (including the footer).
std::string EncodeManifest(const Manifest& manifest);

/// Parses and fully validates manifest bytes (magic, version, footer CRC,
/// resolver consistency). Typed errors, never UB on corrupt input.
StatusOr<Manifest> DecodeManifest(const std::string& bytes);

}  // namespace widen::storage

#endif  // WIDEN_STORAGE_SHARD_FORMAT_H_
