#include "relational/posting_index.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
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

RowSet Posting::ToRowSet(size_t rows) const {
  if (dense_) {
    FALCON_DCHECK(bits_.universe_size() == rows);
    return bits_;
  }
  RowSet out(rows);
  for (uint32_t r : ids_) out.Set(r);
  return out;
}

Posting PostingIndex::MakePosting(RowSet rows) const {
  Posting p;
  size_t count = rows.Count();
  p.dense_ = StoresDense(count);
  if (p.dense_) {
    p.dense_count_ = count;
    p.bits_ = std::move(rows);
  } else {
    p.ids_.reserve(count);
    rows.ForEach([&](size_t r) { p.ids_.push_back(static_cast<uint32_t>(r)); });
  }
  return p;
}

Posting PostingIndex::MakePosting(std::span<const uint32_t> ids) const {
  Posting p;
  p.dense_ = StoresDense(ids.size());
  if (p.dense_) {
    p.dense_count_ = ids.size();
    p.bits_ = RowSet(table_->num_rows());
    for (uint32_t r : ids) p.bits_.Set(r);
  } else {
    p.ids_.assign(ids.begin(), ids.end());
  }
  return p;
}

PostingIndex::Entry& PostingIndex::Insert(size_t col, ValueId v,
                                          Posting posting) {
  lru_.push_front(Key{col, v});
  Entry& e = cache_[col][v];
  e.posting = std::move(posting);
  e.lru_it = lru_.begin();
  e.bytes = e.posting.PayloadBytes() + kEntryOverheadBytes;
  bytes_ += e.bytes;
  return e;
}

void PostingIndex::EraseEntry(size_t col, ColumnCache::iterator it) {
  lru_.erase(it->second.lru_it);
  bytes_ -= it->second.bytes;
  cache_[col].erase(it);
}

void PostingIndex::Refresh(Entry& e) {
  Posting& p = e.posting;
  size_t count = p.Count();
  bool dense = StoresDense(count);
  if (dense && !p.dense_) {
    p.bits_ = RowSet(table_->num_rows());
    for (uint32_t r : p.ids_) p.bits_.Set(r);
    p.dense_count_ = count;
    std::vector<uint32_t>().swap(p.ids_);
  } else if (!dense && p.dense_) {
    p.ids_.reserve(count);
    p.bits_.ForEach(
        [&](size_t r) { p.ids_.push_back(static_cast<uint32_t>(r)); });
    p.bits_ = RowSet();
  }
  p.dense_ = dense;
  size_t now = p.PayloadBytes() + kEntryOverheadBytes;
  bytes_ += now;
  bytes_ -= e.bytes;
  e.bytes = now;
}

void PostingIndex::ApplyMoves(Entry* new_entry) {
  // Group the leaving rows by entry; the sort is stable, so each entry's
  // rows stay ascending.
  std::stable_sort(moves_.begin(), moves_.end(),
                   [](const Move& a, const Move& b) {
                     return std::less<Entry*>()(a.entry, b.entry);
                   });
  for (size_t i = 0; i < moves_.size();) {
    Entry* e = moves_[i].entry;
    size_t end = i;
    while (end < moves_.size() && moves_[end].entry == e) ++end;
    Posting& p = e->posting;
    if (p.dense_) {
      for (size_t k = i; k < end; ++k) {
        FALCON_DCHECK(p.bits_.Test(moves_[k].row));
        p.bits_.Clear(moves_[k].row);
      }
      p.dense_count_ -= end - i;
    } else {
      // One merge: the leaving rows are a sorted subset of the ids.
      std::vector<uint32_t>& ids = p.ids_;
      size_t kept = 0;
      size_t k = i;
      for (uint32_t r : ids) {
        if (k < end && moves_[k].row == r) {
          ++k;
        } else {
          ids[kept++] = r;
        }
      }
      FALCON_DCHECK(k == end);
      ids.resize(kept);
    }
    Refresh(*e);
    i = end;
  }
  if (new_entry != nullptr && !added_.empty()) {
    Posting& p = new_entry->posting;
    if (p.dense_) {
      for (uint32_t r : added_) {
        FALCON_DCHECK(!p.bits_.Test(r));
        p.bits_.Set(r);
      }
      p.dense_count_ += added_.size();
    } else {
      std::vector<uint32_t> merged(p.ids_.size() + added_.size());
      std::merge(p.ids_.begin(), p.ids_.end(), added_.begin(), added_.end(),
                 merged.begin());
      p.ids_ = std::move(merged);
    }
    Refresh(*new_entry);
  }
}

PostingStorageStats PostingIndex::StorageStats() const {
  PostingStorageStats s;
  size_t dense_entry = ((table_->num_rows() + 63) / 64) * sizeof(uint64_t);
  ForEachEntry([&](size_t, ValueId, const Posting& p) {
    ++s.entries;
    s.resident_bytes += p.PayloadBytes();
    s.dense_bytes += dense_entry;
    ++(p.dense() ? s.dense_postings : s.array_postings);
  });
  return s;
}

const Posting& PostingIndex::Postings(size_t col, ValueId v) {
  ColumnCache& cache = cache_[col];
  auto it = cache.find(v);
  if (it != cache.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // Touch.
    return it->second.posting;
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
      return it->second.posting;
    }
  }
  return Insert(col, v, MakePosting(table_->ScanEquals(col, v))).posting;
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
  // finds decides bounded versus key-like. The range is mostly ids of
  // other columns, so the walk skips all-zero blocks of 16 counts first.
  constexpr size_t kWalkBlock = 16;
  const size_t max_distinct = num_rows / 64;
  std::vector<ValueId> values;       // Distinct values, ascending.
  std::vector<size_t> bounds = {0};  // Bucket i is [bounds[i], bounds[i+1]).
  size_t next = 0;
  for (size_t b = 0; b < range; b += kWalkBlock) {
    const size_t b_end = std::min(range, b + kWalkBlock);
    uint32_t any = 0;
    for (const std::vector<uint32_t>& h : counts) {
      for (size_t i = b; i < b_end; ++i) any |= h[i];
    }
    if (any == 0) continue;
    for (size_t i = b; i < b_end; ++i) {
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

  // Pass 3: emit each value's posting from its bucket, in the form a
  // miss would store, and cache it, in ascending ValueId order. An array
  // posting is a copy of its bucket, a dense one a scatter of it. Serial,
  // so every posting is allocated by the calling thread, as a miss's
  // scan would be.
  for (size_t i = 0; i < values.size(); ++i) {
    std::span<const uint32_t> rows(ids.get() + bounds[i],
                                   bounds[i + 1] - bounds[i]);
    Insert(col, values[i], MakePosting(rows));
  }
  return true;
}

void PostingIndex::ApplyAppend(size_t old_rows) {
  size_t new_rows = table_->num_rows();
  FALCON_CHECK(new_rows >= old_rows);
  if (new_rows == old_rows) return;
  Timer timer(&stats_.append_ms);
  stats_.append_rows += new_rows - old_rows;
  for (size_t c = 0; c < cache_.size(); ++c) {
    ColumnCache& cache = cache_[c];
    if (cache.empty()) continue;
    for (auto& [v, e] : cache) {
      if (e.posting.dense_) e.posting.bits_.Resize(new_rows);
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
      if (memo_entry == nullptr) continue;
      Posting& p = memo_entry->posting;
      if (p.dense_) {
        p.bits_.Set(r);
        ++p.dense_count_;
      } else {
        p.ids_.push_back(static_cast<uint32_t>(r));  // Ascending.
      }
    }
    // More rows move the rule's line: re-check every posting's form.
    for (auto& [v, e] : cache) Refresh(e);
  }
}

void PostingIndex::ApplyCellDelta(size_t col, size_t row, ValueId old_value,
                                  ValueId new_value) {
  if (old_value == new_value) return;
  Timer timer(&stats_.delta_ms);
  ColumnCache& cache = cache_[col];
  if (cache.empty()) return;
  moves_.clear();
  added_.clear();
  if (Entry* e = FindEntry(cache, old_value)) {
    moves_.push_back({e, static_cast<uint32_t>(row)});
  }
  Entry* new_entry = FindEntry(cache, new_value);
  if (new_entry != nullptr) added_.push_back(static_cast<uint32_t>(row));
  ++stats_.delta_rows;
  ApplyMoves(new_entry);
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
