#include "core/shared_base_cache.h"

#include <utility>

namespace falcon {

SharedBaseCache::SharedBaseCache(uint64_t snapshot_id, size_t num_cols,
                                 size_t byte_budget)
    : snapshot_id_(snapshot_id),
      num_cols_(num_cols),
      byte_budget_(byte_budget),
      posting_shards_(2 * num_cols) {}

SharedBaseCache::EntryPtr SharedBaseCache::FindPosting(bool compressed,
                                                       size_t col,
                                                       ValueId value) {
  auto map = PostingShard(compressed, col).Snapshot();
  if (map != nullptr) {
    auto it = map->find(value);
    if (it != map->end()) {
      posting_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  posting_misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

SharedBaseCache::EntryPtr SharedBaseCache::PublishPosting(
    bool compressed, size_t col, ValueId value, HybridRowSet rows,
    uint64_t epoch_at_scan) {
  Shard& shard = PostingShard(compressed, col);
  const size_t add = EntryBytes(rows);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  // Reject work computed against a retired generation: the producer read
  // epoch_at_scan, then scanned; an Invalidate in between means the scan
  // may predate whatever the invalidation was about.
  if (epoch_at_scan != epoch_.load(std::memory_order_acquire)) {
    rejected_publishes_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const HybridRowSet>(std::move(rows));
  }
  const std::shared_ptr<const PostingMap>& cur = shard.map;
  if (cur != nullptr) {
    auto it = cur->find(value);
    if (it != cur->end()) return it->second;  // First publisher won the race.
  }
  if (byte_budget_ != 0 &&
      resident_bytes_.load(std::memory_order_relaxed) + add > byte_budget_) {
    rejected_publishes_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const HybridRowSet>(std::move(rows));
  }
  auto entry = std::make_shared<const HybridRowSet>(std::move(rows));
  auto next = cur != nullptr ? std::make_shared<PostingMap>(*cur)
                             : std::make_shared<PostingMap>();
  (*next)[value] = entry;
  shard.map = std::move(next);
  resident_bytes_.fetch_add(add, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  posting_publishes_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void SharedBaseCache::Invalidate() {
  // Bump the epoch first so publishers racing this call fail their epoch
  // check even if their shard has not been cleared yet.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  for (auto& shard : posting_shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.reset();
  }
  resident_bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

SharedBaseCacheStats SharedBaseCache::Stats() const {
  SharedBaseCacheStats s;
  s.posting_hits = posting_hits_.load(std::memory_order_relaxed);
  s.posting_misses = posting_misses_.load(std::memory_order_relaxed);
  s.posting_publishes = posting_publishes_.load(std::memory_order_relaxed);
  s.rejected_publishes = rejected_publishes_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace falcon
