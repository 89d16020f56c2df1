#include "relational/posting_index.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "common/thread_pool.h"

namespace falcon {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PostingIndex::Timer::Timer(double* sink) : sink_(sink), start_ms_(NowMs()) {}

PostingIndex::Timer::~Timer() { *sink_ += NowMs() - start_ms_; }

PostingIndex::Entry& PostingIndex::Insert(size_t col, ValueId v,
                                          HybridRowSet rows) {
  lru_.push_front(Key{col, v});
  Entry& e = cache_[col][v];
  e.rows = std::move(rows);
  e.lru_it = lru_.begin();
  e.bytes = EntryBytes(e.rows);
  bytes_ += e.bytes;
  return e;
}

void PostingIndex::EraseEntry(size_t col, ColumnCache::iterator it) {
  lru_.erase(it->second.lru_it);
  bytes_ -= it->second.bytes;
  cache_[col].erase(it);
}

void PostingIndex::ReaccountTouched(std::vector<Entry*>& touched) {
  for (Entry* e : touched) {
    size_t now = EntryBytes(e->rows);
    bytes_ += now;
    bytes_ -= e->bytes;
    e->bytes = now;
    e->dirty = false;
  }
}

PostingStorageStats PostingIndex::StorageStats() const {
  PostingStorageStats s;
  size_t dense_entry = ((table_->num_rows() + 63) / 64) * sizeof(uint64_t);
  for (const ColumnCache& cache : cache_) {
    for (const auto& [v, e] : cache) {
      ++s.entries;
      s.resident_bytes += e.rows.HeapBytes();
      s.dense_bytes += dense_entry;
      if (e.rows.compressed()) {
        auto cs = e.rows.comp().container_stats();
        s.array_containers += cs.arrays;
        s.bitmap_containers += cs.bitmaps;
        s.run_containers += cs.runs;
      }
    }
  }
  return s;
}

const HybridRowSet& PostingIndex::Postings(size_t col, ValueId v) {
  ColumnCache& cache = cache_[col];
  auto it = cache.find(v);
  if (it != cache.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // Touch.
    return it->second.rows;
  }
  ++stats_.misses;
  Timer timer(&stats_.scan_ms);
  if (kinds_[col] == ColumnKind::kUnknown) {
    bool built = CountingSortBuild(col, ThreadPool::Global(),
                                   /*only_bounded=*/true);
    kinds_[col] = built ? ColumnKind::kBuilt : ColumnKind::kKeyLike;
    it = cache.find(v);
    if (it != cache.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.rows;
    }
  }
  HybridRowSet rows(table_->ScanEquals(col, v));
  if (options_.compressed) {
    // Density-adaptive: sparse postings compress, dense ones stay word
    // bitmaps. Deterministic in the posting's cardinality only.
    rows.Compact(rows.Count());
  }
  return Insert(col, v, std::move(rows)).rows;
}

void PostingIndex::BuildColumn(size_t col, ThreadPool* pool) {
  // A full build replaces whatever the column held.
  InvalidateColumn(col);
  Timer timer(&stats_.scan_ms);
  CountingSortBuild(col, pool != nullptr ? *pool : ThreadPool::Global(),
                    /*only_bounded=*/false);
  kinds_[col] = ColumnKind::kBuilt;
}

bool PostingIndex::CountingSortBuild(size_t col, ThreadPool& pool,
                                     bool only_bounded) {
  const ValueId* column = table_->column(col).data();
  const size_t num_rows = table_->num_rows();
  FALCON_CHECK(num_rows <= UINT32_MAX);
  if (num_rows == 0) return true;
  constexpr size_t kShardRows = size_t{1} << 16;

  // The column's ValueId range sizes the histograms: ids are pool-wide, so
  // a column's values may sit anywhere in a pool far larger than it.
  ValueId lo = column[0], hi = column[0];
  std::mutex mu;
  pool.ParallelFor(num_rows, kShardRows, [&](size_t begin, size_t end) {
    ValueId shard_lo = column[begin], shard_hi = column[begin];
    for (size_t r = begin; r < end; ++r) {
      ValueId v = column[r];  // Selects on values, so the loop vectorizes.
      shard_lo = v < shard_lo ? v : shard_lo;
      shard_hi = v > shard_hi ? v : shard_hi;
    }
    std::lock_guard<std::mutex> lock(mu);
    lo = std::min(lo, shard_lo);
    hi = std::max(hi, shard_hi);
  });
  const size_t range = size_t{hi} - lo + 1;

  // Shards are contiguous row ranges of at least 64Ki rows, at most one per
  // pool thread, and no more than keep all histograms within one count per
  // row: the build's transient memory stays O(rows + range). A key column
  // sharing its pool with the table spans about as many ids as rows, so it
  // counts in one shard.
  const size_t num_shards = std::max<size_t>(
      1, std::min({num_rows / kShardRows, pool.num_threads() + 1,
                   num_rows / range}));
  const size_t shard_rows = (num_rows + num_shards - 1) / num_shards;
  // A single shard runs inline, here and in pass 2.
  const size_t fork_grain = num_shards > 1 ? 1 : SIZE_MAX;

  // Pass 1: a histogram per shard, indexed by ValueId − lo. Pass 2 turns
  // each shard's counts into its write cursors.
  std::vector<std::vector<uint32_t>> counts(num_shards,
                                            std::vector<uint32_t>(range, 0));
  pool.ParallelFor(num_shards, fork_grain, [&](size_t sb, size_t se) {
    for (size_t s = sb; s < se; ++s) {
      uint32_t* h = counts[s].data();
      size_t end = std::min(num_rows, (s + 1) * shard_rows);
      for (size_t r = s * shard_rows; r < end; ++r) ++h[column[r] - lo];
    }
  });

  // Merge the shards in order. Value v's bucket is a contiguous range of
  // `ids`, ascending ValueIds first; within it shard s writes after every
  // earlier shard, so each bucket comes out in ascending row order and the
  // layout never depends on the thread count. The distinct count this walk
  // finds decides bounded versus key-like.
  const size_t max_distinct = num_rows / 64;
  std::vector<ValueId> values;       // Distinct values, ascending.
  std::vector<size_t> bounds = {0};  // Bucket i is [bounds[i], bounds[i+1]).
  size_t next = 0;
  for (size_t i = 0; i < range; ++i) {
    size_t start = next;
    for (std::vector<uint32_t>& h : counts) {
      uint32_t count = h[i];
      h[i] = static_cast<uint32_t>(next);
      next += count;
    }
    if (next == start) continue;
    if (only_bounded && values.size() == max_distinct) return false;
    values.push_back(static_cast<ValueId>(lo + i));
    bounds.push_back(next);
  }

  // Pass 2: bucket row ids by value. Every slot is written exactly once.
  std::unique_ptr<uint32_t[]> ids =
      std::make_unique_for_overwrite<uint32_t[]>(num_rows);
  pool.ParallelFor(num_shards, fork_grain, [&](size_t sb, size_t se) {
    for (size_t s = sb; s < se; ++s) {
      uint32_t* cursor = counts[s].data();
      size_t end = std::min(num_rows, (s + 1) * shard_rows);
      for (size_t r = s * shard_rows; r < end; ++r) {
        ids[cursor[column[r] - lo]++] = static_cast<uint32_t>(r);
      }
    }
  });
  counts.clear();

  // Pass 3: emit each value's posting from its bucket, in the
  // representation Compact would give a scan of the same rows, and cache
  // it, in ascending ValueId order. Serial, so every posting is allocated
  // by the calling thread, as a miss's scan would be.
  for (size_t i = 0; i < values.size(); ++i) {
    std::span<const uint32_t> rows(ids.get() + bounds[i],
                                   bounds[i + 1] - bounds[i]);
    if (options_.compressed &&
        HybridRowSet::CompressesDense(rows.size(), num_rows)) {
      Insert(col, values[i],
             HybridRowSet(CompressedRowSet::FromSorted(num_rows, rows)));
    } else {
      RowSet dense(num_rows);
      for (uint32_t r : rows) dense.Set(r);
      Insert(col, values[i], std::move(dense));
    }
  }
  return true;
}

void PostingIndex::ApplyAppend(size_t old_rows) {
  size_t new_rows = table_->num_rows();
  FALCON_CHECK(new_rows >= old_rows);
  if (new_rows == old_rows) return;
  Timer timer(&stats_.append_ms);
  stats_.append_rows += new_rows - old_rows;
  std::vector<Entry*> touched;
  for (size_t c = 0; c < cache_.size(); ++c) {
    ColumnCache& cache = cache_[c];
    if (cache.empty()) continue;
    for (auto& [v, e] : cache) {
      e.rows.Resize(new_rows);
      Touch(&e, touched);
    }
    const ValueId* column = table_->column(c).data();
    // Appended chunks frequently repeat values; memoize the last lookup.
    ValueId memo_value = 0;
    Entry* memo_entry = nullptr;
    bool memo_valid = false;
    for (size_t r = old_rows; r < new_rows; ++r) {
      ValueId v = column[r];
      if (!memo_valid || v != memo_value) {
        memo_value = v;
        memo_entry = FindEntry(cache, v);
        memo_valid = true;
      }
      if (memo_entry != nullptr) memo_entry->rows.Set(r);
    }
  }
  ReaccountTouched(touched);
}

void PostingIndex::ApplyCellDelta(size_t col, size_t row, ValueId old_value,
                                  ValueId new_value) {
  if (old_value == new_value) return;
  Timer timer(&stats_.delta_ms);
  ColumnCache& cache = cache_[col];
  if (cache.empty()) return;
  std::vector<Entry*> touched;
  if (Entry* e = Touch(FindEntry(cache, old_value), touched)) {
    e->rows.Clear(row);
  }
  if (Entry* e = Touch(FindEntry(cache, new_value), touched)) {
    e->rows.Set(row);
  }
  ++stats_.delta_rows;
  ReaccountTouched(touched);
}

void PostingIndex::InvalidateColumn(size_t col) {
  ColumnCache& cache = cache_[col];
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    lru_.erase(it->second.lru_it);
    bytes_ -= it->second.bytes;
  }
  cache.clear();
  kinds_[col] = ColumnKind::kUnknown;
}

void PostingIndex::InvalidateAll() {
  for (auto& m : cache_) m.clear();
  std::fill(kinds_.begin(), kinds_.end(), ColumnKind::kUnknown);
  lru_.clear();
  bytes_ = 0;
}

void PostingIndex::Trim() {
  if (options_.byte_budget == 0) return;
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    auto [col, v] = lru_.back();
    EraseEntry(col, cache_[col].find(v));
    ++stats_.evictions;
  }
}

}  // namespace falcon
