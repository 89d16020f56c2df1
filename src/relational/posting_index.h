// PostingIndex: lazily built, cached posting bitmaps for (column = value)
// predicates. Lattice construction scans each bound predicate once per
// session; across a cleaning run the same constants recur (group values,
// frequent categories), so caching them amortizes the scans.
//
// Two maintenance modes:
//  - delta (default): callers that know exactly which rows changed and the
//    old/new value report them via ApplyDelta/ApplyCellDelta; the cache
//    stays exact across an entire cleaning session — the bitmaps are
//    updated in place instead of being rebuilt by full-table rescans.
//  - invalidate (legacy): InvalidateColumn drops a column's entries after
//    any write to it; the next Postings call rescans.
//
// Memory is bounded by an optional byte budget with LRU eviction. Eviction
// is deferred to explicit Trim() calls so that references returned by
// Postings stay valid while a lattice build holds them; the session driver
// trims between lattice episodes.
//
// Two-tier operation (shared base cache)
//   When PostingIndexOptions::shared names a SharedBaseCache whose
//   snapshot id matches base_snapshot_id, the index becomes two-tier:
//   columns the session has never mutated probe the process-wide shared
//   tier first (pinning hits in a per-column view map so returned
//   references obey the same lifetime contract as private entries) and
//   publish their scans back for other sessions. The first write to a
//   column *privatizes* it — pinned shared entries are promoted into
//   private LRU entries and the existing delta machinery patches those
//   session-local copies from then on. The shared tier therefore only
//   ever holds base-pure bitmaps, and a session's view of a mutated
//   column is indistinguishable from the single-tier behaviour.
#ifndef FALCON_RELATIONAL_POSTING_INDEX_H_
#define FALCON_RELATIONAL_POSTING_INDEX_H_

#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hybrid_row_set.h"
#include "common/row_set.h"
#include "core/shared_base_cache.h"
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
  /// Optional process-wide base tier (non-owning; must outlive the index).
  /// Only attached when its snapshot id equals base_snapshot_id below —
  /// a mismatch silently degrades to single-tier operation.
  SharedBaseCache* shared = nullptr;
  /// Generation id of the base snapshot the indexed table was cloned
  /// from (CleaningWorkload::snapshot_id). 0 = never attach.
  uint64_t base_snapshot_id = 0;
};

/// Counters surfaced through SessionMetrics and the benches.
struct PostingIndexStats {
  size_t hits = 0;        ///< Postings served from the private cache.
  size_t misses = 0;      ///< Private-tier probes that scanned the table.
  size_t delta_rows = 0;  ///< Row-bit updates applied by delta maintenance.
  size_t evictions = 0;   ///< Entries dropped by Trim().
  double scan_ms = 0.0;   ///< Time spent in table scans (fills).
  double delta_ms = 0.0;  ///< Time spent applying deltas.
  /// Two-tier counters: probes of clean columns served by the shared base
  /// tier vs. probes that missed it and scanned (then published).
  size_t shared_hits = 0;
  size_t shared_misses = 0;
  /// Portion of scan_ms spent filling base (shared-eligible) postings —
  /// the build cost the shared tier amortizes across sessions. Private
  /// re-scans after writes are excluded: every session pays those alike.
  double base_scan_ms = 0.0;
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
      : table_(table), options_(options), cache_(table->num_cols()) {
    if (options_.shared != nullptr && options_.base_snapshot_id != 0 &&
        options_.shared->snapshot_id() == options_.base_snapshot_id &&
        options_.shared->num_cols() == table->num_cols()) {
      shared_ = options_.shared;
      col_private_.assign(table->num_cols(), 0);
      shared_views_.resize(table->num_cols());
    }
  }

  PostingIndex(const PostingIndex&) = delete;
  PostingIndex& operator=(const PostingIndex&) = delete;

  bool delta_maintenance() const { return options_.delta_maintenance; }

  /// Rows where `col` equals `v`. First call scans the column; later calls
  /// are cache hits until the entry is invalidated or evicted. The returned
  /// reference stays valid until InvalidateColumn/InvalidateAll/Trim.
  const HybridRowSet& Postings(size_t col, ValueId v);

  /// Batch fill: caches postings for every value of `col` not yet cached in
  /// a single pass over the column (Table::ScanEqualsMulti).
  void Warm(size_t col, const std::vector<ValueId>& values);

  /// Full deterministic build of `col`: caches a posting for every distinct
  /// value present (including NULL), sharded across `pool` (the global pool
  /// when null). Bit-identical to the serial build at any thread count —
  /// shards own disjoint 64-row-aligned ranges, so each bitmap word has
  /// exactly one writer, and entries are inserted in ascending ValueId
  /// order regardless of which shard discovered them. Existing entries of
  /// the column are dropped first; the column leaves the shared tier.
  /// Intended for bounded-domain (lattice-relevant) columns — a unique
  /// column would materialize one bitmap per row.
  void BuildColumn(size_t col, ThreadPool* pool = nullptr);

  /// BuildColumn over every column of the table.
  void BuildAll(ThreadPool* pool = nullptr);

  /// Streaming-append maintenance: the table grew from `old_rows` to its
  /// current num_rows() by appending rows (no existing cell changed).
  /// Every cached bitmap is resized to the new universe and the new rows'
  /// bits are folded into their values' postings — O(batch + entries), not
  /// O(table). Appended rows diverge from the base snapshot, so every
  /// column leaves the shared tier (pinned shared entries are promoted
  /// first and then patched like private ones). Exact in both maintenance
  /// modes: growth is a pure extension, never an in-place rewrite.
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
    // The column is being written: it can no longer be served from the
    // shared base tier. Promote pinned shared entries into private copies
    // *before* the empty-cache early-out — even an uncached column must be
    // marked private, or a later probe would resurrect the base bitmap.
    PrivatizeColumn(col);
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

  size_t cached_entries() const { return lru_.size(); }
  size_t cached_bytes() const { return bytes_; }
  const PostingIndexStats& stats() const { return stats_; }
  size_t hits() const { return stats_.hits; }
  size_t misses() const { return stats_.misses; }

  /// Exact resident-storage breakdown (entries, measured bytes, dense
  /// equivalent, per-container tallies). Walks the cache; O(entries).
  /// Counts the *private* tier only — shared-tier bytes live once in the
  /// process-wide cache and are reported separately (SharedViewBytes),
  /// so N sessions never multiply-count one resident bitmap.
  PostingStorageStats StorageStats() const;

  /// Shared-tier pins held by this index: entries this session has probed
  /// out of the shared base cache (each is a refcount on a bitmap resident
  /// once process-wide).
  size_t SharedViewEntries() const;
  /// Heap bytes of those pinned bitmaps, as visible to this session.
  size_t SharedViewBytes() const;
  bool shared_attached() const { return shared_ != nullptr; }

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

  /// Exact accounted bytes for a stored bitmap (measured heap + flat
  /// bookkeeping overhead so tiny tables still converge under a budget).
  static size_t EntryBytes(const HybridRowSet& rows) {
    return rows.HeapBytes() + 64;
  }
  Entry& Insert(size_t col, ValueId v, RowSet rows);
  void EraseEntry(size_t col, ColumnCache::iterator it);

  /// True while `col` may be served from the shared base tier (attached
  /// and never mutated by this session).
  bool SharedEligible(size_t col) const {
    return shared_ != nullptr && col_private_[col] == 0;
  }
  /// Marks `col` session-private: pinned shared entries are promoted into
  /// private LRU entries (bit-for-bit copies, representation preserved)
  /// so delta maintenance patches session-local state from here on.
  void PrivatizeColumn(size_t col);
  /// Shared-tier serving path of Postings() for an eligible column.
  const HybridRowSet& SharedPostings(size_t col, ValueId v);

  const Table* table_;
  PostingIndexOptions options_;
  std::vector<ColumnCache> cache_;
  std::list<Key> lru_;  // Front = most recently used.
  size_t bytes_ = 0;
  PostingIndexStats stats_;

  /// Two-tier state (set iff the options named a matching shared cache).
  SharedBaseCache* shared_ = nullptr;
  std::vector<uint8_t> col_private_;  ///< 1 = column left the shared tier.
  /// Per-column pins of shared entries this session has probed; they keep
  /// references returned by Postings valid under the standard contract
  /// (until InvalidateColumn/InvalidateAll — Trim only touches the
  /// private tier) and survive cache invalidation (RCU grace).
  std::vector<std::unordered_map<ValueId, SharedBaseCache::EntryPtr>>
      shared_views_;
};

}  // namespace falcon

#endif  // FALCON_RELATIONAL_POSTING_INDEX_H_
