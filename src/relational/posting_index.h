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
// Storage. Each cached posting takes exactly one of two forms, chosen by
// Posting::DenseRule(count, rows) = count · 32 ≥ rows: a dense RowSet when
// the bitmap is no larger than a u32 id array would be, else a sorted
// array of row ids. This is Roaring's array-versus-bitmap rule applied
// once per value instead of per 64Ki-row chunk. The form depends on
// (count, rows) alone and is re-checked after every delta and append, so a
// maintained index equals a fresh build of the same table bit for bit and
// byte for byte. With PostingIndexOptions::compressed off every posting
// is dense. A column holds at most 32 dense postings, so bitmaps stay a
// bounded share of the cache however many values a column has, and a
// key-like miss caches a few ids instead of a whole bitmap.
//
// Two maintenance modes:
//  - delta (default): callers that know exactly which rows changed and the
//    old/new value report them via ApplyDelta/ApplyCellDelta; the cache
//    stays exact across an entire cleaning session — dense postings are
//    patched bit by bit, array postings by one sorted merge per delta,
//    instead of being rebuilt by full-table rescans.
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
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/row_set.h"
#include "relational/table.h"

namespace falcon {

class ThreadPool;

struct PostingIndexOptions {
  /// Maintain cached postings in place on cell updates (ApplyDelta) instead
  /// of requiring column invalidation.
  bool delta_maintenance = true;
  /// Cache size cap in bytes (0 = unbounded). Enforced by Trim(), which
  /// evicts least-recently-used entries.
  size_t byte_budget = 0;
  /// Store sparse postings as sorted row-id arrays (Posting::DenseRule).
  /// Off stores every posting as a dense bitmap. Both modes hold the same
  /// rows; only bytes and the lattice's copy cost differ.
  bool compressed = false;
};

/// Counters surfaced through SessionMetrics and the benches.
struct PostingIndexStats {
  size_t hits = 0;        ///< Postings served from the cache.
  size_t misses = 0;      ///< Probes that scanned the table.
  size_t delta_rows = 0;  ///< Row updates applied by delta maintenance.
  size_t evictions = 0;   ///< Entries dropped by Trim().
  double scan_ms = 0.0;   ///< Time spent in table scans (fills).
  double delta_ms = 0.0;  ///< Time spent applying deltas.
  /// Streaming-append maintenance: rows folded in by ApplyAppend and the
  /// time spent extending cached postings for them.
  size_t append_rows = 0;
  double append_ms = 0.0;
};

/// Resident-storage breakdown of the posting cache (surfaced through the
/// benches and tests). `resident_bytes` is the stored payload: 8 bytes per
/// bitmap word, 4 per array id — what the LRU budget accounts.
struct PostingStorageStats {
  size_t entries = 0;         ///< Cached (column, value) postings.
  size_t resident_bytes = 0;  ///< Payload bytes of the stored postings.
  size_t dense_bytes = 0;     ///< What the same entries would cost dense.
  size_t dense_postings = 0;  ///< Entries stored as bitmaps.
  size_t array_postings = 0;  ///< Entries stored as row-id arrays.
  /// Dense-to-resident ratio (> 1 means the arrays are saving bytes).
  double compression() const {
    return resident_bytes == 0
               ? 1.0
               : static_cast<double>(dense_bytes) /
                     static_cast<double>(resident_bytes);
  }
};

/// One cached posting: the rows where a column holds a value, as a dense
/// bitmap or as a sorted array of row ids (see the file comment). Readers
/// take the bitmap in place or scatter the ids; the index alone mutates.
class Posting {
 public:
  /// True iff a posting of `count` rows in a `rows`-row table is stored
  /// dense: the bitmap is then no larger than the id array.
  static bool DenseRule(size_t count, size_t rows) {
    return count * 32 >= rows;
  }

  bool dense() const { return dense_; }
  /// The bitmap of a dense posting.
  const RowSet& bits() const {
    FALCON_DCHECK(dense_);
    return bits_;
  }
  /// The ascending row ids of an array posting.
  std::span<const uint32_t> ids() const {
    FALCON_DCHECK(!dense_);
    return ids_;
  }
  size_t Count() const { return dense_ ? dense_count_ : ids_.size(); }

  /// Calls `fn(row)` for every row, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (dense_) {
      bits_.ForEach(fn);
    } else {
      for (uint32_t r : ids_) fn(size_t{r});
    }
  }

  /// The rows as a bitmap over `rows` table rows (a copy or a scatter).
  RowSet ToRowSet(size_t rows) const;

  /// Stored payload: 8 bytes per bitmap word or 4 per id. A function of
  /// (count, rows) alone, whatever growth slack appends left in capacity.
  size_t PayloadBytes() const {
    return dense_ ? bits_.num_words() * sizeof(uint64_t)
                  : ids_.size() * sizeof(uint32_t);
  }

 private:
  friend class PostingIndex;

  bool dense_ = false;
  size_t dense_count_ = 0;  // |bits_|, kept across patches.
  RowSet bits_;
  std::vector<uint32_t> ids_;
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
  /// InvalidateColumn/InvalidateAll/Trim, and its contents (form
  /// included) change only through deltas and appends to `col`.
  const Posting& Postings(size_t col, ValueId v);

  /// Caches a posting for every value `col` holds (NULL included), whatever
  /// its domain size, by counting sort: a ValueId-indexed histogram pass, a
  /// pass bucketing row ids by value (each bucket ascending), both sharded
  /// on `pool` (the global pool when null), then each value's posting
  /// emitted from its bucket: an array posting copies the bucket, a dense
  /// one scatters it. Contents, form, insert order and byte accounting
  /// equal the per-value misses' at any thread count. Existing entries of
  /// the column are dropped first. Transient memory is O(rows + the
  /// column's ValueId range).
  void BuildColumn(size_t col, ThreadPool* pool = nullptr);

  /// Streaming-append maintenance: the table grew from `old_rows` to its
  /// current num_rows() by appending rows (no existing cell changed). The
  /// new row ids are ascending, so each joins its array posting by one
  /// push_back; only dense postings grow their universe. Every posting's
  /// form is then re-checked against the grown row count. O(batch +
  /// entries + dense words), not O(table). Exact in both maintenance
  /// modes: growth is a pure extension, never an in-place rewrite.
  void ApplyAppend(size_t old_rows);

  /// Delta maintenance: the caller wrote `new_value` into every row of
  /// `rows` in `col`; `old_value(row)` must return the value each row held
  /// *before* the write (so call this before, or with captured
  /// before-images after, the actual writes). Cached postings are patched
  /// in place: the old value's posting loses the row, the new value's
  /// gains it — bit by bit in a bitmap, by one sorted merge per array.
  /// Uncached values stay uncached.
  template <typename Fn>
  void ApplyDelta(size_t col, const RowSet& rows, Fn&& old_value,
                  ValueId new_value) {
    Timer timer(&stats_.delta_ms);
    ColumnCache& cache = cache_[col];
    if (cache.empty()) return;
    Entry* new_entry = FindEntry(cache, new_value);
    moves_.clear();
    added_.clear();
    // Runs of rows frequently share the old value; memoize the last lookup.
    ValueId memo_value = new_value;
    Entry* memo_entry = nullptr;
    rows.ForEach([&](size_t r) {
      ValueId old = old_value(r);
      if (old == new_value) return;
      if (old != memo_value) {
        memo_value = old;
        memo_entry = FindEntry(cache, old);
      }
      if (memo_entry != nullptr) {
        moves_.push_back({memo_entry, static_cast<uint32_t>(r)});
      }
      if (new_entry != nullptr) added_.push_back(static_cast<uint32_t>(r));
      ++stats_.delta_rows;
    });
    ApplyMoves(new_entry);
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

  /// Flat bookkeeping charge per cached entry, on top of its payload
  /// bytes, so tiny tables still converge under a budget.
  static constexpr size_t kEntryOverheadBytes = 64;

  size_t cached_entries() const { return lru_.size(); }
  /// Accounted bytes: Σ payload bytes + kEntryOverheadBytes per entry.
  /// A running total, kept exact on every insert, patch and eviction.
  size_t cached_bytes() const { return bytes_; }
  const PostingIndexStats& stats() const { return stats_; }
  size_t hits() const { return stats_.hits; }
  size_t misses() const { return stats_.misses; }

  /// Resident-storage breakdown (entries, payload bytes, dense
  /// equivalent, per-form tallies). Walks the cache; O(entries).
  PostingStorageStats StorageStats() const;

  /// Calls `fn(col, value, posting)` for every cached entry, in no
  /// particular order. Probes nothing and moves no counter.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t c = 0; c < cache_.size(); ++c) {
      for (const auto& [v, e] : cache_[c]) fn(c, v, e.posting);
    }
  }

 private:
  using Key = std::pair<size_t, ValueId>;  // (column, value).
  struct Entry {
    Posting posting;
    /// Accounted bytes of `posting` at last (re-)accounting, including
    /// the flat per-entry bookkeeping charge.
    size_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };
  using ColumnCache = std::unordered_map<ValueId, Entry>;
  /// What the last miss (or BuildColumn) found a column to be.
  enum class ColumnKind : uint8_t { kUnknown, kBuilt, kKeyLike };
  /// One row leaving `entry`'s posting (ApplyDelta's scratch).
  struct Move {
    Entry* entry;
    uint32_t row;
  };

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

  /// True iff a posting of `count` rows is stored dense in this index.
  bool StoresDense(size_t count) const {
    return !options_.compressed ||
           Posting::DenseRule(count, table_->num_rows());
  }
  /// The posting of `rows` (a scan result) in the form the rule picks.
  Posting MakePosting(RowSet rows) const;
  /// The posting of ascending row ids `ids` in the form the rule picks.
  Posting MakePosting(std::span<const uint32_t> ids) const;
  /// Re-checks `e`'s form against its count and the current row count,
  /// converting if the rule now picks the other form, and re-accounts it.
  void Refresh(Entry& e);
  /// Applies moves_ (rows leaving their entries, grouped per entry) and
  /// added_ (rows joining `new_entry`), then refreshes every touched entry.
  void ApplyMoves(Entry* new_entry);

  Entry& Insert(size_t col, ValueId v, Posting posting);
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
  // ApplyDelta scratch, kept to reuse its capacity.
  std::vector<Move> moves_;
  std::vector<uint32_t> added_;
};

}  // namespace falcon

#endif  // FALCON_RELATIONAL_POSTING_INDEX_H_
