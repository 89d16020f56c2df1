// RowSet: a fixed-universe dynamic bitmap over table row ids. This is the
// representation of every lattice node and predicate bitmap: node sets are
// built by ANDing per-predicate posting bitmaps, and incremental lattice
// maintenance is one AND-NOT per node over the words a repair touched.
#ifndef FALCON_COMMON_ROW_SET_H_
#define FALCON_COMMON_ROW_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"

namespace falcon {

/// Dense bitmap over rows [0, universe_size).
class RowSet {
 public:
  RowSet() = default;

  /// Creates an empty set over `universe_size` rows.
  explicit RowSet(size_t universe_size)
      : universe_size_(universe_size),
        words_((universe_size + 63) / 64, 0) {}

  /// Creates a set over `universe_size` rows with every bit set to `fill`.
  RowSet(size_t universe_size, bool fill) : RowSet(universe_size) {
    if (fill) SetAll();
  }

  size_t universe_size() const { return universe_size_; }

  /// Grows the universe to `new_universe` rows (streaming append). Existing
  /// bits are preserved; the new rows [old, new) start cleared. Shrinking is
  /// not supported — row ids are stable for the lifetime of a table.
  void Resize(size_t new_universe) {
    FALCON_DCHECK(new_universe >= universe_size_);
    if (new_universe <= universe_size_) return;
    // The old tail word already keeps bits past universe_size() zeroed
    // (TrimTail invariant), so growing is just widening the storage.
    universe_size_ = new_universe;
    words_.resize((new_universe + 63) / 64, 0);
  }

  /// Word-level access for blocked kernels (parallel scans shard by word so
  /// writers touch disjoint ranges). Word i covers rows [64i, 64i+64).
  size_t num_words() const { return words_.size(); }
  uint64_t word(size_t i) const { return words_[i]; }
  /// Raw word storage for blocked SIMD kernels (read-only).
  const uint64_t* word_data() const { return words_.data(); }
  void SetWord(size_t i, uint64_t w) {
    // The tail word covers rows past universe_size(); storing raw bits there
    // would corrupt the Count()/Complement()/operator== invariants, so trim
    // them.
    size_t tail = universe_size_ & 63;
    if (tail != 0 && i + 1 == words_.size()) {
      w &= (uint64_t{1} << tail) - 1;
    }
    words_[i] = w;
  }

  void Set(size_t row) { words_[row >> 6] |= (uint64_t{1} << (row & 63)); }
  void Clear(size_t row) { words_[row >> 6] &= ~(uint64_t{1} << (row & 63)); }
  bool Test(size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  /// Sets every bit in the universe.
  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
  }

  /// Clears every bit.
  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits (runtime-dispatched SIMD popcount loop).
  size_t Count() const {
    return simd::PopcountWords(words_.data(), words_.size());
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// this &= other.
  void And(const RowSet& other) {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    simd::AndWords(words_.data(), other.words_.data(), words_.size());
  }

  /// this = a & b in one fused pass, returning the cardinality of the
  /// result — the kernel counts in registers while it writes, so the
  /// copy-then-And-then-popcount sequence collapses to two read streams
  /// and one write. Both operands keep their tail words clean, so the
  /// result does too.
  size_t AssignAnd(const RowSet& a, const RowSet& b) {
    FALCON_DCHECK(a.universe_size_ == b.universe_size_);
    universe_size_ = a.universe_size_;
    words_.resize(a.words_.size());
    return simd::And3CountWords(words_.data(), a.words_.data(),
                                b.words_.data(), words_.size());
  }

  /// this &= ~other.
  void AndNot(const RowSet& other) {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    simd::AndNotWords(words_.data(), other.words_.data(), words_.size());
  }

  /// this &= ~other over the listed words only, returning how many bits it
  /// cleared (|this ∩ other| within those words). When `words` lists every
  /// nonzero word of `other`, this is AndNot plus the AndCount taken before
  /// it, at a cost proportional to the list instead of the universe — the
  /// lattice maintains each node over just the words a repair touched.
  size_t AndNotCountAt(const RowSet& other, std::span<const uint32_t> words) {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    size_t cleared = 0;
    for (uint32_t i : words) {
      FALCON_DCHECK(i < words_.size());
      uint64_t hit = words_[i] & other.words_[i];
      cleared += static_cast<size_t>(std::popcount(hit));
      words_[i] ^= hit;
    }
    return cleared;
  }

  /// this |= other.
  void Or(const RowSet& other) {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    simd::OrWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Complement within the universe: rows NOT in this set.
  RowSet Complement() const {
    RowSet out(universe_size_);
    for (size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
    out.TrimTail();
    return out;
  }

  /// Fused AND + popcount kernel: returns |this ∩ other| in one pass over
  /// the words without materializing an intermediate bitmap — legal
  /// whenever the caller needs only the cardinality of the intersection,
  /// never its bits.
  size_t AndCount(const RowSet& other) const {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    return simd::AndCountWords(words_.data(), other.words_.data(),
                               words_.size());
  }

  /// Returns |this ∩ other| without materializing the intersection.
  /// (Alias of AndCount, kept for existing callers.)
  size_t IntersectCount(const RowSet& other) const { return AndCount(other); }

  /// True iff this ∩ other = ∅.
  bool DisjointWith(const RowSet& other) const {
    FALCON_DCHECK(universe_size_ == other.universe_size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return false;
    }
    return true;
  }

  bool operator==(const RowSet& other) const {
    return universe_size_ == other.universe_size_ && words_ == other.words_;
  }

  /// Calls `fn(row)` for every set row in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w) {
        int bit = std::countr_zero(w);
        fn(i * 64 + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Returns true iff `fn(row)` holds for every set row; stops at the first
  /// failure.
  template <typename Fn>
  bool AllOf(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w) {
        int bit = std::countr_zero(w);
        if (!fn(i * 64 + static_cast<size_t>(bit))) return false;
        w &= w - 1;
      }
    }
    return true;
  }

  /// Materializes set rows as a vector (test/debug convenience).
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> rows;
    rows.reserve(Count());
    ForEach([&](size_t r) { rows.push_back(static_cast<uint32_t>(r)); });
    return rows;
  }

  /// Resident heap bytes of the word storage (capacity-based, matching the
  /// exact accounting in the posting index).
  size_t HeapBytes() const { return words_.capacity() * sizeof(uint64_t); }

  /// Returns the first set row, or universe_size() if empty.
  size_t First() const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i]) {
        return i * 64 + static_cast<size_t>(std::countr_zero(words_[i]));
      }
    }
    return universe_size_;
  }

 private:
  void TrimTail() {
    size_t tail = universe_size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  size_t universe_size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace falcon

#endif  // FALCON_COMMON_ROW_SET_H_
