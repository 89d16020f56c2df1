#include "relational/posting_index.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_set>

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

PostingIndex::Entry& PostingIndex::Insert(size_t col, ValueId v, RowSet rows) {
  lru_.push_front(Key{col, v});
  Entry& e = cache_[col][v];
  e.rows = HybridRowSet(std::move(rows));
  if (options_.compressed) {
    // Density-adaptive: sparse postings compress, dense ones stay word
    // bitmaps. Deterministic in the posting's cardinality only.
    e.rows.Compact(e.rows.Count());
  }
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
  return Insert(col, v, table_->ScanEquals(col, v)).rows;
}

void PostingIndex::BuildColumn(size_t col, ThreadPool* pool) {
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Global();
  // A full build replaces whatever the column held.
  InvalidateColumn(col);
  Timer timer(&stats_.scan_ms);
  const ValueId* column = table_->column(col).data();
  const size_t num_rows = table_->num_rows();
  constexpr size_t kRowGrain = size_t{1} << 16;

  // Pass 1: distinct-value discovery. Per-shard sets merge under a lock;
  // the merged set is sorted by ValueId, so the insert order below — and
  // with it the LRU order and byte accounting — never depends on shard
  // boundaries or thread interleaving.
  std::mutex mu;
  std::unordered_set<ValueId> merged;
  tp.ParallelFor(num_rows, kRowGrain, [&](size_t begin, size_t end) {
    std::unordered_set<ValueId> seen;
    for (size_t r = begin; r < end; ++r) seen.insert(column[r]);
    std::lock_guard<std::mutex> lock(mu);
    merged.insert(seen.begin(), seen.end());
  });
  std::vector<ValueId> values(merged.begin(), merged.end());
  std::sort(values.begin(), values.end());
  if (values.empty()) return;

  // Pass 2: bitmap fill. Shards own disjoint 64-row-aligned row ranges, so
  // two shards never touch the same word of any bitmap — each word has
  // exactly one writer and the result is bit-identical to the serial loop.
  // One pass over the column serves every value via a dense slot table.
  ValueId max_value = values.back();
  std::vector<uint32_t> slot(static_cast<size_t>(max_value) + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    slot[values[i]] = static_cast<uint32_t>(i);
  }
  std::vector<RowSet> bitmaps;
  bitmaps.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) bitmaps.emplace_back(num_rows);
  size_t num_words = (num_rows + 63) / 64;
  tp.ParallelFor(num_words, kRowGrain / 64, [&](size_t wb, size_t we) {
    size_t r0 = wb * 64;
    size_t r1 = std::min(we * 64, num_rows);
    for (size_t r = r0; r < r1; ++r) {
      bitmaps[slot[column[r]]].Set(r);
    }
  });
  for (size_t i = 0; i < values.size(); ++i) {
    Insert(col, values[i], std::move(bitmaps[i]));
  }
}

void PostingIndex::BuildAll(ThreadPool* pool) {
  for (size_t c = 0; c < cache_.size(); ++c) BuildColumn(c, pool);
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
}

void PostingIndex::InvalidateAll() {
  for (auto& m : cache_) m.clear();
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
