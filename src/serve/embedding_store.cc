#include "serve/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/logging.h"

namespace widen::serve {

EmbeddingStore::EmbeddingStore(int64_t capacity, int64_t embedding_dim)
    : capacity_(capacity), embedding_dim_(embedding_dim) {
  WIDEN_CHECK_GE(capacity, 0);
  WIDEN_CHECK_GT(embedding_dim, 0);
}

int64_t EmbeddingStore::EntryBytes(const Entry& e) {
  // std::list node = Entry + prev/next pointers; unordered_map node = the
  // key/iterator pair + one chaining pointer, plus one bucket pointer.
  return static_cast<int64_t>(
      e.row.capacity() * sizeof(float) +
      e.read_set.capacity() * sizeof(graph::NodeId) + sizeof(Entry) +
      2 * sizeof(void*) +
      sizeof(std::pair<const graph::NodeId, LruList::iterator>) +
      2 * sizeof(void*));
}

EmbeddingStore::LruList::iterator EmbeddingStore::Erase(LruList::iterator it) {
  resident_bytes_ -= EntryBytes(*it);
  entries_.erase(it->node);
  return lru_.erase(it);
}

bool EmbeddingStore::Lookup(graph::NodeId node, float* out) {
  auto it = entries_.find(node);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  std::memcpy(out, it->second->row.data(),
              static_cast<size_t>(embedding_dim_) * sizeof(float));
  ++stats_.hits;
  return true;
}

void EmbeddingStore::Insert(graph::NodeId node, const float* row,
                            std::vector<graph::NodeId> read_set) {
  if (capacity_ == 0) return;
  auto it = entries_.find(node);
  if (it != entries_.end()) {
    Entry& entry = *it->second;
    resident_bytes_ -= EntryBytes(entry);
    entry.row.assign(row, row + embedding_dim_);
    entry.read_set = std::move(read_set);
    resident_bytes_ += EntryBytes(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (static_cast<int64_t>(entries_.size()) >= capacity_) {
    Erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
  lru_.push_front(Entry{node, std::vector<float>(row, row + embedding_dim_),
                        std::move(read_set)});
  entries_.emplace(node, lru_.begin());
  resident_bytes_ += EntryBytes(lru_.front());
  ++stats_.insertions;
}

int64_t EmbeddingStore::Invalidate(const std::vector<graph::NodeId>& touched) {
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const std::vector<graph::NodeId>& reads = it->read_set;
    const bool stale =
        std::any_of(touched.begin(), touched.end(), [&](graph::NodeId v) {
          return std::binary_search(reads.begin(), reads.end(), v);
        });
    if (stale) {
      it = Erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

}  // namespace widen::serve
