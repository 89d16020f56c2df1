// PostingIndex: cached posting bitmaps for (column = value) predicates,
// the rows every lattice build starts from (Section 5.1.2). Across a
// cleaning session the same columns and constants recur, so a posting is
// computed once and served from the cache afterwards.
//
// Misses. The first miss on a column counts its values in one pass. A
// bounded-domain column — at most num_rows/64 distinct values — is then
// built whole by one counting sort (BuildColumn), so every later probe of
// it hits: a session probes nearly every value of each lattice column, and
// one pass serves them all where one scan per value would not. The 1/64
// cap keeps a whole build's bookkeeping near one byte per row. A key-like
// column (more distinct values) is never built on a miss; each miss scans
// the column for the one value asked for. After a whole build, a miss on
// a value the column did not hold, or on one Trim evicted, is such a
// single-value scan too. InvalidateColumn/InvalidateAll forget what a
// column was, and its next miss decides again.
//
// Two maintenance modes:
//  - delta (default): callers that know exactly which rows changed and the
//    old/new value report them via ApplyDelta/ApplyCellDelta; the cache
//    stays exact across an entire cleaning session — the bitmaps are
//    updated in place instead of being rebuilt by full-table rescans.
//  - invalidate (legacy): InvalidateColumn drops a column's entries after
//    any write to it; the next Postings call rebuilds or rescans.
//
// Memory is bounded by an optional byte budget with LRU eviction. Eviction
// is deferred to explicit Trim() calls so that references returned by
// Postings stay valid while a lattice build holds them; the session driver
// trims between lattice episodes.
#ifndef FALCON_RELATIONAL_POSTING_INDEX_H_
#define FALCON_RELATIONAL_POSTING_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hybrid_row_set.h"
#include "common/row_set.h"
#include "relational/table.h"

namespace falcon {

class ThreadPool;

struct PostingIndexOptions {
  /// Maintain cached bitmaps in place on cell updates (ApplyDelta) instead
  /// of requiring column invalidation.
  bool delta_maintenance = true;
  /// Cache size cap in bytes (0 = unbounded). Enforced by Trim(), which
  /// evicts least-recently-used entries.
  size_t byte_budget = 0;
  /// Store postings in the density-adaptive compressed representation
  /// (Roaring-style containers). Bit-identical to dense mode; sparse
  /// postings cost bytes proportional to their cardinality instead of the
  /// table size, so far more of the posting universe fits in the budget.
  bool compressed = false;
};

/// Counters surfaced through SessionMetrics and the benches.
struct PostingIndexStats {
  size_t hits = 0;        ///< Postings served from the cache.
  size_t misses = 0;      ///< Probes that scanned the table.
  size_t delta_rows = 0;  ///< Row-bit updates applied by delta maintenance.
  size_t evictions = 0;   ///< Entries dropped by Trim().
  double scan_ms = 0.0;   ///< Time spent in table scans (fills).
  double delta_ms = 0.0;  ///< Time spent applying deltas.
  /// Streaming-append maintenance: rows folded in by ApplyAppend and the
  /// time spent extending cached bitmaps for them.
  size_t append_rows = 0;
  double append_ms = 0.0;
};

/// Exact resident-storage breakdown of the posting cache (surfaced through
/// SessionMetrics and the benches). `resident_bytes` is the measured heap
/// footprint of the stored bitmaps — in compressed mode this is what the
/// LRU budget accounts, replacing the old dense n/8-per-entry estimate.
struct PostingStorageStats {
  size_t entries = 0;         ///< Cached (column, value) bitmaps.
  size_t resident_bytes = 0;  ///< Exact heap bytes of the stored bitmaps.
  size_t dense_bytes = 0;     ///< What the same entries would cost dense.
  size_t array_containers = 0;
  size_t bitmap_containers = 0;
  size_t run_containers = 0;
  /// Dense-to-resident ratio (> 1 means compression is winning).
  double compression() const {
    return resident_bytes == 0
               ? 1.0
               : static_cast<double>(dense_bytes) /
                     static_cast<double>(resident_bytes);
  }
};

class PostingIndex {
 public:
  /// `table` must outlive the index.
  explicit PostingIndex(const Table* table, PostingIndexOptions options = {})
      : table_(table),
        options_(options),
        cache_(table->num_cols()),
        kinds_(table->num_cols(), ColumnKind::kUnknown) {}

  PostingIndex(const PostingIndex&) = delete;
  PostingIndex& operator=(const PostingIndex&) = delete;

  bool delta_maintenance() const { return options_.delta_maintenance; }

  /// Rows where `col` equals `v`. A hit serves the cached posting. A miss
  /// builds the whole column when this is the first miss on a
  /// bounded-domain column, and otherwise scans for `v` alone (see the
  /// file comment); either way it counts one miss and charges its time to
  /// scan_ms. The returned reference stays valid until
  /// InvalidateColumn/InvalidateAll/Trim.
  const HybridRowSet& Postings(size_t col, ValueId v);

  /// Caches a posting for every value `col` holds (NULL included), whatever
  /// its domain size, by counting sort: a ValueId-indexed histogram pass, a
  /// pass bucketing row ids by value (each bucket ascending), both sharded
  /// on `pool` (the global pool when null), then each value's posting
  /// emitted from its bucket in the representation a miss would store.
  /// Contents, representation, insert order and byte accounting equal the
  /// per-value misses' (scan + Compact) at any thread count. Existing
  /// entries of the column are dropped first. Transient memory is
  /// O(rows + the column's ValueId range); no bitmap is allocated beyond
  /// the stored postings.
  void BuildColumn(size_t col, ThreadPool* pool = nullptr);

  /// Streaming-append maintenance: the table grew from `old_rows` to its
  /// current num_rows() by appending rows (no existing cell changed).
  /// Every cached bitmap is resized to the new universe and the new rows'
  /// bits are folded into their values' postings — O(batch + entries), not
  /// O(table). Exact in both maintenance modes: growth is a pure
  /// extension, never an in-place rewrite.
  void ApplyAppend(size_t old_rows);

  /// Delta maintenance: the caller wrote `new_value` into every row of
  /// `rows` in `col`; `old_value(row)` must return the value each row held
  /// *before* the write (so call this before, or with captured
  /// before-images after, the actual writes). Cached bitmaps are patched in
  /// place: the old value's bitmap loses the row, the new value's gains it.
  /// Uncached values stay uncached.
  template <typename Fn>
  void ApplyDelta(size_t col, const RowSet& rows, Fn&& old_value,
                  ValueId new_value) {
    Timer timer(&stats_.delta_ms);
    ColumnCache& cache = cache_[col];
    if (cache.empty()) return;
    std::vector<Entry*> touched;
    Entry* new_entry = Touch(FindEntry(cache, new_value), touched);
    // Runs of rows frequently share the old value; memoize the last lookup.
    ValueId memo_value = new_value;
    Entry* memo_entry = nullptr;
    rows.ForEach([&](size_t r) {
      ValueId old = old_value(r);
      if (old == new_value) return;
      if (old != memo_value) {
        memo_value = old;
        memo_entry = Touch(FindEntry(cache, old), touched);
      }
      if (memo_entry != nullptr) memo_entry->rows.Clear(r);
      if (new_entry != nullptr) new_entry->rows.Set(r);
      ++stats_.delta_rows;
    });
    ReaccountTouched(touched);
  }

  /// Single-cell delta (the session's manual-fix path).
  void ApplyCellDelta(size_t col, size_t row, ValueId old_value,
                      ValueId new_value);

  /// Drops cached postings of `col` (legacy invalidate-and-rescan mode).
  void InvalidateColumn(size_t col);

  void InvalidateAll();

  /// Enforces the byte budget by evicting LRU entries. Invalidates
  /// references previously returned by Postings; call between episodes.
  void Trim();

  /// Flat bookkeeping charge per cached entry, on top of its bitmap's heap
  /// bytes, so tiny tables still converge under a budget.
  static constexpr size_t kEntryOverheadBytes = 64;

  size_t cached_entries() const { return lru_.size(); }
  /// Accounted bytes: Σ bitmap heap bytes + kEntryOverheadBytes per entry.
  /// A running total, kept exact on every insert, patch and eviction.
  size_t cached_bytes() const { return bytes_; }
  const PostingIndexStats& stats() const { return stats_; }
  size_t hits() const { return stats_.hits; }
  size_t misses() const { return stats_.misses; }

  /// Exact resident-storage breakdown (entries, measured bytes, dense
  /// equivalent, per-container tallies). Walks the cache; O(entries).
  PostingStorageStats StorageStats() const;

 private:
  using Key = std::pair<size_t, ValueId>;  // (column, value).
  struct Entry {
    HybridRowSet rows;
    /// Exact accounted bytes of `rows` at last (re-)accounting, including
    /// the flat per-entry bookkeeping charge.
    size_t bytes = 0;
    bool dirty = false;  ///< In the current delta's touched list.
    std::list<Key>::iterator lru_it;
  };
  using ColumnCache = std::unordered_map<ValueId, Entry>;
  /// What the last miss (or BuildColumn) found a column to be.
  enum class ColumnKind : uint8_t { kUnknown, kBuilt, kKeyLike };

  // Adds elapsed wall time to *sink on destruction.
  class Timer {
   public:
    explicit Timer(double* sink);
    ~Timer();

   private:
    double* sink_;
    double start_ms_;
  };

  Entry* FindEntry(ColumnCache& cache, ValueId v) {
    auto it = cache.find(v);
    return it == cache.end() ? nullptr : &it->second;
  }

  /// Adds a to-be-mutated entry to the touched list (once) so its byte
  /// accounting can be refreshed after the patch.
  static Entry* Touch(Entry* e, std::vector<Entry*>& touched) {
    if (e != nullptr && !e->dirty) {
      e->dirty = true;
      touched.push_back(e);
    }
    return e;
  }
  /// Re-measures every touched entry and folds the delta into bytes_.
  void ReaccountTouched(std::vector<Entry*>& touched);

  /// Exact accounted bytes for a stored bitmap.
  static size_t EntryBytes(const HybridRowSet& rows) {
    return rows.HeapBytes() + kEntryOverheadBytes;
  }
  Entry& Insert(size_t col, ValueId v, HybridRowSet rows);
  /// The counting-sort build behind BuildColumn. When `only_bounded`, it
  /// stops after the histogram pass, caching nothing, if `col` holds more
  /// than num_rows/64 distinct values. Returns whether it built.
  bool CountingSortBuild(size_t col, ThreadPool& pool, bool only_bounded);
  void EraseEntry(size_t col, ColumnCache::iterator it);

  const Table* table_;
  PostingIndexOptions options_;
  std::vector<ColumnCache> cache_;
  std::vector<ColumnKind> kinds_;
  std::list<Key> lru_;  // Front = most recently used.
  size_t bytes_ = 0;
  PostingIndexStats stats_;
};

}  // namespace falcon

#endif  // FALCON_RELATIONAL_POSTING_INDEX_H_
