// SharedBaseCache: process-wide, read-mostly cache of posting bitmaps
// computed over one immutable base snapshot (a CleaningWorkload's dirty
// instance). N service sessions cleaning the same base all probe this tier
// first and only materialize privately for columns they have mutated, so
// the posting/index build cost of a workload is paid once per process
// instead of once per session.
//
// Keying & correctness
//   - The cache is keyed on the base's snapshot generation id
//     (CleaningWorkload::snapshot_id): consumers attach only when their
//     options carry a matching id, so a cache can never serve bitmaps for
//     a different table that happens to share (column, value) coordinates.
//   - Entries exist in two planes, dense and compressed, selected by the
//     session's row-set representation. Planes never mix, so a compressed
//     session can never observe a dense session's encoding (the bits are
//     identical either way; the plane split removes representation
//     aliasing from the hot path entirely).
//   - Published bitmaps are *base-pure*: producers only publish postings
//     scanned from columns they have not mutated (content equal to the
//     base). Session-private deltas never reach this tier.
//
// Publication protocol (copy-on-publish, copy-on-invalidate)
//   - Each shard holds an immutable map snapshot behind a shared_mutex.
//     Readers take a brief shared lock only to pin the current snapshot (a
//     shared_ptr refcount bump), then probe outside the lock; they can
//     hold the returned entry pin for as long as they like — invalidation
//     never frees memory out from under a reader (RCU-style grace via
//     shared_ptr refcounts). (A std::atomic<std::shared_ptr> would make
//     the pin wait-free, but libstdc++'s embedded-spinlock implementation
//     trips TSan, and an uncontended shared lock is ~one CAS anyway.)
//   - Writers take the shard lock exclusively, copy the current map,
//     insert, and swing the snapshot pointer. First publisher wins: a
//     racing publish of the same key returns the already-resident entry,
//     so all sessions converge on one physical bitmap per key.
//   - Invalidate() bumps the epoch and publishes empty maps. Publishers
//     pass the epoch they observed *before* computing their bitmap;
//     a publish whose epoch is stale is rejected (the caller keeps its
//     private copy), so a probe can never surface a bitmap computed
//     against a retired generation.
//
// Memory: a byte budget (0 = unbounded) is enforced at publish time —
// over-budget publishes are rejected, not evicted, keeping resident
// entries immortal until Invalidate(). The SessionManager layers LRU
// *across* base caches on top (whole-cache invalidation of the
// least-recently-touched base).
#ifndef FALCON_CORE_SHARED_BASE_CACHE_H_
#define FALCON_CORE_SHARED_BASE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/hybrid_row_set.h"
#include "common/interner.h"

namespace falcon {

/// Monotonic counter snapshot of one cache (all fields cumulative since
/// construction except resident_bytes/entries, which are current).
struct SharedBaseCacheStats {
  size_t posting_hits = 0;
  size_t posting_misses = 0;
  size_t posting_publishes = 0;
  /// Publishes dropped: byte budget exceeded or stale epoch.
  size_t rejected_publishes = 0;
  size_t invalidations = 0;  ///< Epoch bumps.
  size_t resident_bytes = 0;
  size_t entries = 0;
};

class SharedBaseCache {
 public:
  using EntryPtr = std::shared_ptr<const HybridRowSet>;

  /// `snapshot_id` must be the owning base's generation id (nonzero);
  /// `num_cols` its column count; `byte_budget` caps resident bitmap bytes
  /// across both planes (0 = unbounded).
  SharedBaseCache(uint64_t snapshot_id, size_t num_cols,
                  size_t byte_budget = 0);

  SharedBaseCache(const SharedBaseCache&) = delete;
  SharedBaseCache& operator=(const SharedBaseCache&) = delete;

  uint64_t snapshot_id() const { return snapshot_id_; }
  size_t num_cols() const { return num_cols_; }
  size_t byte_budget() const { return byte_budget_; }

  /// Current publication epoch. Producers read it *before* computing a
  /// bitmap and pass it to PublishPosting so stale work is rejected.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Lock-free probe for the base posting (col = value) in the given
  /// plane. Returns nullptr on miss. The returned pin stays valid across
  /// Invalidate() — it just stops being discoverable.
  EntryPtr FindPosting(bool compressed, size_t col, ValueId value);

  /// Offers a base-pure posting computed while `epoch_at_scan` was
  /// current. Returns the resident entry: the caller's bitmap if it won
  /// publication, the first publisher's if it raced, or an unpublished
  /// wrap of the caller's bitmap when the publish was rejected (budget or
  /// stale epoch) — always usable, so callers never recompute.
  EntryPtr PublishPosting(bool compressed, size_t col, ValueId value,
                          HybridRowSet rows, uint64_t epoch_at_scan);

  /// Retires the current generation: bumps the epoch and publishes empty
  /// maps. In-flight readers keep their pins; in-flight publishers get
  /// rejected by the epoch check.
  void Invalidate();

  size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }

  SharedBaseCacheStats Stats() const;

 private:
  using PostingMap = std::unordered_map<ValueId, EntryPtr>;

  /// One independently-published map snapshot. Readers hold `mu` shared
  /// just long enough to copy `map`; writers hold it exclusive across
  /// copy-insert-swing. The pointed-to map itself is never mutated.
  struct Shard {
    mutable std::shared_mutex mu;
    std::shared_ptr<const PostingMap> map;

    std::shared_ptr<const PostingMap> Snapshot() const {
      std::shared_lock<std::shared_mutex> lock(mu);
      return map;
    }
  };

  /// Flat per-entry charge covering map node + shared_ptr control block.
  static size_t EntryBytes(const HybridRowSet& rows) {
    return rows.HeapBytes() + 96;
  }

  Shard& PostingShard(bool compressed, size_t col) {
    return posting_shards_[(compressed ? num_cols_ : 0) + col];
  }

  const uint64_t snapshot_id_;
  const size_t num_cols_;
  const size_t byte_budget_;

  std::atomic<uint64_t> epoch_{1};
  std::vector<Shard> posting_shards_;  ///< 2 planes × num_cols.

  std::atomic<size_t> resident_bytes_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> posting_hits_{0};
  std::atomic<size_t> posting_misses_{0};
  std::atomic<size_t> posting_publishes_{0};
  std::atomic<size_t> rejected_publishes_{0};
  std::atomic<size_t> invalidations_{0};
};

}  // namespace falcon

#endif  // FALCON_CORE_SHARED_BASE_CACHE_H_
