// Bounded LRU cache of served embeddings, keyed by node.
//
// The store holds rows the session had to COMPUTE (delta-added nodes and
// base nodes without a trained representation); rows frozen at training time
// are served from the checkpoint's rep table and never enter the store.
//
// Each row carries its read set: the sorted, distinct ids of the nodes whose
// adjacency its cold encode read (serve/graph_delta.h, ReadSetRecorder).
// On ingest the session calls Invalidate with the nodes the delta touched,
// and exactly the rows whose read set holds one of them are dropped. Every
// other row would re-encode to the same bits: each node draws from its own
// RNG stream, features, node types and base reps of existing nodes never
// change, eval dropout draws nothing, and deltas only add, so an encode
// reads mutable state only through the adjacency lists in its read set.
// Rows need no version in their key: the session looks up and inserts
// under its shared graph lock, and Invalidate runs under the exclusive
// one, together with the only change to the graph.
//
// There is no reverse index (node -> rows): with ~155 read nodes per row it
// would add a hash node and a row-list slot per (node, row) pair, several
// times the row's own bytes, while Invalidate's scan of the rows is cheap
// (each test is a binary search in one sorted read set).
//
// Not internally synchronized — the owning session guards it with a mutex.

#ifndef WIDEN_SERVE_EMBEDDING_STORE_H_
#define WIDEN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace widen::serve {

class EmbeddingStore {
 public:
  /// `capacity` is the maximum number of cached rows; 0 disables caching.
  /// `embedding_dim` is the row width.
  EmbeddingStore(int64_t capacity, int64_t embedding_dim);

  /// Copies the cached row for `node` into `out` (embedding_dim floats) and
  /// marks it most-recently-used. False on miss.
  bool Lookup(graph::NodeId node, float* out);

  /// Inserts or overwrites `node`'s row and read set (sorted, distinct ids),
  /// evicting the least recently used entry when full.
  void Insert(graph::NodeId node, const float* row,
              std::vector<graph::NodeId> read_set);

  /// Drops every row whose read set contains a node of `touched`; the others
  /// keep their LRU position. Returns the number of rows dropped.
  int64_t Invalidate(const std::vector<graph::NodeId>& touched);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t capacity() const { return capacity_; }

  /// Heap bytes held by cached rows and read sets plus per-entry bookkeeping
  /// (list node + hash-map slot); excludes allocator slack. A running total,
  /// so reading it is O(1). Feeds the `widen_serve_store_resident_bytes`
  /// gauge and the profiler memory report.
  int64_t ResidentBytes() const { return resident_bytes_; }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t invalidations = 0;  // entries dropped by Invalidate
    int64_t evictions = 0;      // entries dropped by capacity pressure
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    graph::NodeId node;
    std::vector<float> row;
    std::vector<graph::NodeId> read_set;
  };
  using LruList = std::list<Entry>;

  static int64_t EntryBytes(const Entry& e);
  /// Unlinks `it` from both indexes; returns the next list position.
  LruList::iterator Erase(LruList::iterator it);

  int64_t capacity_;
  int64_t embedding_dim_;
  LruList lru_;  // front = most recently used
  std::unordered_map<graph::NodeId, LruList::iterator> entries_;
  int64_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace widen::serve

#endif  // WIDEN_SERVE_EMBEDDING_STORE_H_
