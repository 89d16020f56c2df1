// Runtime-dispatched SIMD kernels for the container primitives that
// dominate the lattice/posting hot path: bitmap word loops (AND / ANDNOT /
// OR / popcount / fused and-count), the blocked count of every lattice
// node, sorted-u16 array intersection (the Roaring array-container
// kernel), and array-against-bitmap membership counting — plus CRC32C, which hashes the whole table on every service
// response (SSE4.2 `crc32` in the vector tiers). Three tiers are compiled
// — portable scalar, AVX2, and AVX-512 (with VPOPCNTDQ) — each in its own
// translation unit with the matching -m flags, and the best tier the CPU
// supports is selected once via CPUID on first use. The active tier can be
// forced down (never up past what the CPU supports) with the
// FALCON_SIMD_LEVEL environment variable or the --simd_level flag every
// binary exposes; tests use this to compare tiers bit-for-bit.
//
// All kernels are pure functions of their inputs and every tier returns
// bit-identical results — dispatch is a performance decision only, so the
// repo-wide determinism guarantees (canonical hashes, lazy/eager
// equivalence) hold under any tier.
#ifndef FALCON_COMMON_SIMD_H_
#define FALCON_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace falcon {

class Flags;  // common/flags.h — kept out of this low-level header.

namespace simd {

enum class Level : uint8_t {
  kScalar = 0,
  kAVX2 = 1,
  kAVX512 = 2,
};

/// Dispatch table of container primitives. One instance per compiled tier;
/// entries are never null in a published table.
struct Kernels {
  /// Population count over n words.
  size_t (*popcount_words)(const uint64_t* w, size_t n);
  /// popcount(a & b) over n words without materializing the AND.
  size_t (*and_count_words)(const uint64_t* a, const uint64_t* b, size_t n);
  /// dst &= src over n words.
  void (*and_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst &= ~src over n words.
  void (*andnot_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst |= src over n words.
  void (*or_words)(uint64_t* dst, const uint64_t* src, size_t n);
  /// Intersection of two sorted unique u16 arrays into out (out may not
  /// alias either input); returns the intersection size. `out` must have
  /// capacity for min(na, nb) + kIntersectSlack elements: the vector tiers
  /// compact matches with full 128-bit stores, so the bytes just past the
  /// returned count are scratch.
  size_t (*intersect_u16)(const uint16_t* a, size_t na, const uint16_t* b,
                          size_t nb, uint16_t* out);
  /// Cardinality-only variant of intersect_u16.
  size_t (*intersect_u16_count)(const uint16_t* a, size_t na,
                                const uint16_t* b, size_t nb);
  /// Number of vals present in the 1024-word bitmap `bits` (vals sorted
  /// unique u16; bits spans the full 65536-row chunk).
  size_t (*array_bitmap_count)(const uint16_t* vals, size_t n,
                               const uint64_t* bits);
  /// dst[i] = a[i] & b[i] with the popcount of the result accumulated in
  /// registers; returns the count. One pass over two read streams and one
  /// write stream — replaces the copy-then-And-then-popcount sequence
  /// (five memory passes) that dominates bitmap materialization. dst may
  /// alias a or b exactly (in-place) but must not partially overlap.
  size_t (*and3_count_words)(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n);
  /// CRC32C (Castagnoli) of `data[0..n)` continuing from `crc`, with the
  /// pre/post inversion of common/crc32c.h's Crc32cExtend (which calls
  /// this). The scalar tier is the byte-table reference; the vector tiers
  /// use the SSE4.2 `crc32` instruction 8 bytes at a time.
  uint32_t (*crc32c_extend)(uint32_t crc, const void* data, size_t n);
  /// Counts every node of a k-attribute lattice in one blocked pass: adds
  /// popcount(base ∧ ∧_{i∈m} preds[i]) into counts[m] for all 2^k masks m
  /// (k ≤ kLatticeCountsMaxAttrs). With `words == nullptr` it covers words
  /// [0, n) of every bitmap; otherwise the n word indices words[0..n)
  /// (each at most once). Blocks of 64, 256 or 512 rows walk the chain tree
  /// depth-first and skip every all-zero subtree; counts must hold 2^k
  /// entries and is added to, never cleared.
  void (*lattice_counts)(const uint64_t* base, const uint64_t* const* preds,
                         size_t k, const uint32_t* words, size_t n,
                         size_t* counts);
};

/// Most predicates lattice_counts accepts (its walk keeps one stack frame
/// per attribute).
inline constexpr size_t kLatticeCountsMaxAttrs = 20;

/// Best tier the running CPU supports (CPUID probe; cached).
Level DetectLevel();

/// The tier currently in effect: min(DetectLevel(), any FALCON_SIMD_LEVEL
/// override). Resolved once on first use.
Level ActiveLevel();

/// "scalar" | "avx2" | "avx512".
const char* LevelName(Level level);

/// Parses "scalar"/"avx2"/"avx512"/"auto" (auto → DetectLevel()).
StatusOr<Level> ParseLevel(std::string_view name);

/// Forces the active tier (clamped to DetectLevel(); requesting an
/// unsupported tier degrades with a warning rather than crashing on an
/// illegal instruction). Accepts the same spellings as ParseLevel.
Status SetLevel(std::string_view name);

/// The active dispatch table.
const Kernels& Active();

/// Per-tier tables, for equivalence tests that compare tiers directly.
/// Returns nullptr when the CPU cannot execute that tier.
const Kernels* TableFor(Level level);

/// Registers and applies the --simd_level flag (auto|scalar|avx2|avx512;
/// default auto) shared by every binary. An unparsable value dies with a
/// diagnostic before any kernel runs; an unsupported-but-valid tier
/// degrades to the best the CPU has, with a warning (same as SetLevel).
void ApplyLevelFlag(const Flags& flags);

// ---------------------------------------------------------------------------
// Hot-path wrappers. One indirect call through the table; the word-loop
// kernels amortize it over whole containers.
// ---------------------------------------------------------------------------

inline size_t PopcountWords(const uint64_t* w, size_t n) {
  return Active().popcount_words(w, n);
}

inline size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().and_count_words(a, b, n);
}

inline void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  Active().and_words(dst, src, n);
}

inline void AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  Active().andnot_words(dst, src, n);
}

inline void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  Active().or_words(dst, src, n);
}

inline size_t IntersectU16(const uint16_t* a, size_t na, const uint16_t* b,
                           size_t nb, uint16_t* out) {
  return Active().intersect_u16(a, na, b, nb, out);
}

inline size_t IntersectU16Count(const uint16_t* a, size_t na,
                                const uint16_t* b, size_t nb) {
  return Active().intersect_u16_count(a, na, b, nb);
}

inline size_t ArrayBitmapCount(const uint16_t* vals, size_t n,
                               const uint64_t* bits) {
  return Active().array_bitmap_count(vals, n, bits);
}

inline size_t And3CountWords(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n) {
  return Active().and3_count_words(dst, a, b, n);
}

inline void LatticeCounts(const uint64_t* base, const uint64_t* const* preds,
                          size_t k, const uint32_t* words, size_t n,
                          size_t* counts) {
  Active().lattice_counts(base, preds, k, words, n, counts);
}

// ---------------------------------------------------------------------------
// Tuning constants shared by all tiers (measured on the dev box — see
// DESIGN.md "SIMD dispatch" for the methodology).
// ---------------------------------------------------------------------------

/// Array∩array switches from the element-wise kernel to galloping (binary
/// probes of the large side) when |large|/|small| reaches these ratios.
/// The vector merge kernel consumes 8 elements per step, so it stays
/// competitive with log2(|large|) probes to much larger skews than the
/// scalar merge does — hence a higher crossover for the SIMD tiers.
inline constexpr size_t kGallopRatioScalar = 32;
inline constexpr size_t kGallopRatioSimd = 64;

/// Extra capacity intersect_u16 callers must reserve past min(na, nb): the
/// SSE compaction stores a whole 8-lane vector at out + count, so the last
/// store can overrun the true intersection size by up to 7 elements.
inline constexpr size_t kIntersectSlack = 8;

namespace internal {

// Per-tier tables, each defined in its own TU compiled with the matching
// -m flags. Avx2Kernels()/Avx512Kernels() return nullptr when the build
// could not compile that tier (non-x86 target); callers additionally gate
// on DetectLevel() before executing them.
const Kernels* ScalarKernels();
const Kernels* Avx2Kernels();
const Kernels* Avx512Kernels();

}  // namespace internal

}  // namespace simd
}  // namespace falcon

#endif  // FALCON_COMMON_SIMD_H_
