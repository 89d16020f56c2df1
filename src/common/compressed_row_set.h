// CompressedRowSet: a Roaring-style compressed bitmap over table row ids.
//
// The universe is split into 64Ki-row chunks keyed by the high 16 bits of
// the row id; each non-empty chunk is one *container* holding the low 16
// bits in whichever encoding is smallest:
//
//   - array container:  sorted uint16_t values (≤ 4096 entries, 2 B/row)
//   - bitmap container: packed 8 KB bitmap (> 4096 entries)
//   - run container:    sorted (start, length-1) pairs (4 B/run) for
//                       interval-shaped sets (complements, SetAll, FD
//                       blocks); built by RunOptimize / FromDense
//
// Containers promote and demote automatically at the standard Roaring
// cardinality threshold (kArrayMaxCard = 4096): an array insert that would
// exceed it converts to a bitmap, a bitmap removal that reaches it converts
// back, and every binary kernel normalizes its result the same way. Run
// containers are read-optimized — a point mutation converts them to the
// array/bitmap encoding first.
//
// The kernel surface mirrors dense RowSet (And/AndNot/Or/AndCount/
// IsSubsetOf/DisjointWith/Complement/ForEach/First/Set/Clear/Test) plus
// mixed-representation kernels against dense RowSet operands and word-block
// export for the parallel scan shards; equality is canonical, so the
// determinism gates never observe the container choice.
//
// Kernels are written for the vectorizer: bitmap∩bitmap runs 4-way-unrolled
// std::popcount word loops, array∩array intersections gallop (binary-search
// skip) when the sides are lopsided, and AndCount never materializes the
// intersection.
#ifndef FALCON_COMMON_COMPRESSED_ROW_SET_H_
#define FALCON_COMMON_COMPRESSED_ROW_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/row_set.h"

namespace falcon {

class CompressedRowSet {
 public:
  /// Standard Roaring array/bitmap switchover cardinality.
  static constexpr uint32_t kArrayMaxCard = 4096;
  /// Rows per container (one 16-bit low-half universe).
  static constexpr size_t kChunkRows = 1 << 16;
  /// 64-bit words per decoded container.
  static constexpr size_t kWordsPerChunk = kChunkRows / 64;

  /// Per-representation container tallies (posting-index stats).
  struct ContainerStats {
    size_t arrays = 0;
    size_t bitmaps = 0;
    size_t runs = 0;
  };

  CompressedRowSet() = default;

  /// Empty set over `universe_size` rows.
  explicit CompressedRowSet(size_t universe_size)
      : universe_size_(universe_size) {}

  /// Set over `universe_size` rows with every bit set to `fill` (a full set
  /// costs one run container per chunk).
  CompressedRowSet(size_t universe_size, bool fill)
      : universe_size_(universe_size) {
    if (fill) SetAll();
  }

  /// Compresses a dense bitmap, choosing the best container per chunk
  /// (including runs).
  static CompressedRowSet FromDense(const RowSet& dense);

  /// Builds the set of `rows` (strictly ascending, each below
  /// `universe_size`) with no dense intermediate, in O(|rows| + containers).
  /// Identical — containers, encodings and HeapBytes — to FromDense of the
  /// same rows followed by RunOptimize().
  static CompressedRowSet FromSorted(size_t universe_size,
                                     std::span<const uint32_t> rows);

  /// Decompresses into a dense bitmap.
  RowSet ToDense() const;

  size_t universe_size() const { return universe_size_; }
  /// Logical 64-bit word count (the dense representation's num_words()).
  size_t num_words() const { return (universe_size_ + 63) / 64; }

  /// Grows the universe (streaming append); new rows start cleared.
  /// Containers are sparse and never hold rows ≥ universe_size(), so only
  /// the logical bound moves — ChunkWords/Complement derive the tail
  /// extent from universe_size_ on demand. Shrinking is not supported.
  void Resize(size_t new_universe) {
    FALCON_DCHECK(new_universe >= universe_size_);
    if (new_universe > universe_size_) universe_size_ = new_universe;
  }

  void Set(size_t row);
  void Clear(size_t row);
  bool Test(size_t row) const;

  void SetAll();
  void ClearAll() { containers_.clear(); }

  size_t Count() const {
    size_t n = 0;
    for (const Container& c : containers_) n += c.card;
    return n;
  }
  bool Empty() const { return containers_.empty(); }

  // --- Compressed ∘ compressed kernels -------------------------------------

  void And(const CompressedRowSet& other);
  void AndNot(const CompressedRowSet& other);
  void Or(const CompressedRowSet& other);
  /// Fused |this ∩ other| — never materializes the intersection.
  size_t AndCount(const CompressedRowSet& other) const;
  bool IsSubsetOf(const CompressedRowSet& other) const;
  bool DisjointWith(const CompressedRowSet& other) const;

  // --- Mixed kernels against a dense operand -------------------------------

  void And(const RowSet& dense);
  void AndNot(const RowSet& dense);
  void Or(const RowSet& dense);
  size_t AndCount(const RowSet& dense) const;
  bool IsSubsetOf(const RowSet& dense) const;
  /// True iff `dense` ⊆ this (the reversed subset direction).
  bool ContainsAll(const RowSet& dense) const;
  bool DisjointWith(const RowSet& dense) const;
  /// dense &= this (dense-side in-place AND; used when a dense node set is
  /// restricted by a compressed predicate bitmap).
  void AndInto(RowSet& dense) const;

  /// Complement within the universe. Run-optimized: the complement of a
  /// sparse set is interval-shaped and costs a few runs per chunk.
  CompressedRowSet Complement() const;

  /// Calls `fn(row)` for every set row in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Container& c : containers_) {
      size_t base = static_cast<size_t>(c.key) << 16;
      switch (c.type) {
        case Type::kArray:
          for (uint16_t v : c.vals) fn(base + v);
          break;
        case Type::kRun:
          for (size_t i = 0; i + 1 < c.vals.size(); i += 2) {
            size_t start = base + c.vals[i];
            size_t end = start + c.vals[i + 1];
            for (size_t r = start; r <= end; ++r) fn(r);
          }
          break;
        case Type::kBitmap:
          for (size_t w = 0; w < kWordsPerChunk; ++w) {
            uint64_t word = c.bits[w];
            while (word) {
              int bit = std::countr_zero(word);
              fn(base + w * 64 + static_cast<size_t>(bit));
              word &= word - 1;
            }
          }
          break;
      }
    }
  }

  /// True iff `fn(row)` holds for every set row; stops at the first failure.
  template <typename Fn>
  bool AllOf(Fn&& fn) const {
    bool ok = true;
    // ForEach has no early exit; cheap enough since AllOf callers bail on
    // the flag inside fn anyway.
    ForEach([&](size_t r) {
      if (ok && !fn(r)) ok = false;
    });
    return ok;
  }

  /// First set row, or universe_size() if empty.
  size_t First() const;

  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> rows;
    rows.reserve(Count());
    ForEach([&](size_t r) { rows.push_back(static_cast<uint32_t>(r)); });
    return rows;
  }

  /// Representation-independent equality (a run container equals the array
  /// holding the same rows).
  bool operator==(const CompressedRowSet& other) const;
  /// Canonical equality against a dense bitmap.
  bool operator==(const RowSet& dense) const;

  /// Word-block export for the parallel scan shards: writes the logical
  /// words [word_begin, word_begin + word_count) into `out`. Shards that
  /// own disjoint word ranges decode disjoint slices, so a parallel export
  /// is bit-identical to ToDense().
  void CopyWords(size_t word_begin, size_t word_count, uint64_t* out) const;

  /// Converts containers to run encoding where runs are the smallest of the
  /// three encodings (the standard Roaring space rule). Call after bulk
  /// construction; point mutations undo it per container.
  void RunOptimize();

  /// Exact resident heap bytes (capacity-based — what the posting budget
  /// accounts).
  size_t HeapBytes() const;

  ContainerStats container_stats() const {
    ContainerStats s;
    for (const Container& c : containers_) {
      if (c.type == Type::kArray) ++s.arrays;
      else if (c.type == Type::kBitmap) ++s.bitmaps;
      else ++s.runs;
    }
    return s;
  }

 private:
  enum class Type : uint8_t { kArray, kBitmap, kRun };

  // vals holds sorted low-16 values (kArray) or interleaved
  // (start, length-1) pairs sorted by start (kRun); bits holds the packed
  // kWordsPerChunk-word bitmap (kBitmap). card is maintained exactly.
  struct Container {
    uint16_t key = 0;
    Type type = Type::kArray;
    uint32_t card = 0;
    std::vector<uint16_t> vals;
    std::vector<uint64_t> bits;
  };

  /// Index of the container with `key`, or containers_.size() if absent.
  size_t FindContainer(uint16_t key) const;
  /// Container for `key`, inserted (empty array) if absent.
  Container& GetOrCreate(uint16_t key);
  /// Number of logical words chunk `key` spans (short for the last chunk).
  size_t ChunkWords(uint16_t key) const;

  static void Decode(const Container& c, uint64_t* words);
  /// Decode into `buf`, allocating it (kWordsPerChunk words) only on first
  /// use — keeps the 8KB scratch off paths that never meet a run container.
  static const uint64_t* DecodeLazy(const Container& c,
                                    std::vector<uint64_t>& buf);
  static Container BuildFromWords(uint16_t key, const uint64_t* words,
                                  size_t nwords, bool try_runs);
  static void ToBitmap(Container& c);
  static void ToArray(Container& c);
  /// Re-encodes a run container as array/bitmap by cardinality (point
  /// mutations need a mutable encoding).
  static void UnRun(Container& c);
  /// Demotes a bitmap whose card dropped to the array threshold.
  static void NormalizeAfterRemoval(Container& c);

  size_t universe_size_ = 0;
  std::vector<Container> containers_;  // Sorted by key; no empty containers.
};

}  // namespace falcon

#endif  // FALCON_COMMON_COMPRESSED_ROW_SET_H_
