// HybridRowSet: the posting index's storage type. A posting is stored
// either dense (RowSet) or compressed (CompressedRowSet), chosen per
// instance by measured density, so sparse postings cost bytes in their
// cardinality instead of the table size. Consumers read a posting through
// ForEach/Count or copy it out dense (ToDense): the lattice keeps every
// node and predicate bitmap as a dense RowSet, so set algebra never
// dispatches on storage.
#ifndef FALCON_COMMON_HYBRID_ROW_SET_H_
#define FALCON_COMMON_HYBRID_ROW_SET_H_

#include <cstddef>
#include <utility>

#include "common/compressed_row_set.h"
#include "common/logging.h"
#include "common/row_set.h"

namespace falcon {

class HybridRowSet {
 public:
  /// Below this density a set compresses (1 row in 16 ≈ where array
  /// containers beat the dense word cost); above kDensifyDensity a
  /// compressed set converts back. The gap hysteresis keeps Compact cheap
  /// to call repeatedly.
  static constexpr double kCompressDensity = 1.0 / 16.0;
  static constexpr double kDensifyDensity = 1.0 / 8.0;
  /// Universes smaller than this stay dense — the dense bitmap is already
  /// tiny and container overhead would dominate.
  static constexpr size_t kMinCompressUniverse = size_t{1} << 14;

  HybridRowSet() = default;
  /* implicit */ HybridRowSet(RowSet dense) : dense_(std::move(dense)) {}
  explicit HybridRowSet(CompressedRowSet comp)
      : compressed_(true), comp_(std::move(comp)) {}

  /// True iff Compact(count) turns a dense set over `universe` rows
  /// compressed — lets a builder emit the compacted form directly.
  static bool CompressesDense(size_t count, size_t universe) {
    return universe >= kMinCompressUniverse &&
           static_cast<double>(count) / static_cast<double>(universe) <
               kCompressDensity;
  }

  bool compressed() const { return compressed_; }
  const CompressedRowSet& comp() const {
    FALCON_DCHECK(compressed_);
    return comp_;
  }

  size_t universe_size() const {
    return compressed_ ? comp_.universe_size() : dense_.universe_size();
  }
  size_t Count() const { return compressed_ ? comp_.Count() : dense_.Count(); }

  void Set(size_t row) { compressed_ ? comp_.Set(row) : dense_.Set(row); }
  void Clear(size_t row) { compressed_ ? comp_.Clear(row) : dense_.Clear(row); }

  /// Grows the universe in the current representation (streaming append);
  /// new rows start cleared. Representation choice is untouched — callers
  /// re-Compact with the post-append cardinality when it matters.
  void Resize(size_t new_universe) {
    compressed_ ? comp_.Resize(new_universe) : dense_.Resize(new_universe);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    compressed_ ? comp_.ForEach(std::forward<Fn>(fn))
                : dense_.ForEach(std::forward<Fn>(fn));
  }

  RowSet ToDense() const { return compressed_ ? comp_.ToDense() : dense_; }

  size_t HeapBytes() const {
    return compressed_ ? comp_.HeapBytes() : dense_.HeapBytes();
  }

  /// Picks the representation by measured density. Deterministic: depends
  /// only on `count` and the universe, never on the current encoding. Pass
  /// the known cardinality to avoid a recount.
  void Compact(size_t count) {
    size_t n = universe_size();
    double density = static_cast<double>(count) / static_cast<double>(n);
    if (n < kMinCompressUniverse ||
        (compressed_ && density > kDensifyDensity)) {
      if (compressed_) {
        dense_ = comp_.ToDense();
        comp_ = CompressedRowSet();
        compressed_ = false;
      }
    } else if (!compressed_ && CompressesDense(count, n)) {
      comp_ = CompressedRowSet::FromDense(dense_);
      comp_.RunOptimize();
      dense_ = RowSet();
      compressed_ = true;
    }
  }

 private:
  bool compressed_ = false;
  RowSet dense_;
  CompressedRowSet comp_;
};

}  // namespace falcon

#endif  // FALCON_COMMON_HYBRID_ROW_SET_H_
