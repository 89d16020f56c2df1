// Runtime-dispatched SIMD kernels for the bitmap primitives that dominate
// the lattice/posting hot path: word loops (AND / ANDNOT / OR / popcount /
// fused and-count), the blocked count of every lattice node and the
// column equality scan behind every posting miss — plus CRC32C, which
// hashes the whole table on every service response (SSE4.2 `crc32` in the
// vector tiers). Three tiers are compiled
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

/// Dispatch table of bitmap primitives. One instance per compiled tier;
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
  /// Equality bitmap of a u32 column: writes the ceil(n / 64) words of
  /// out, bit r of out[r / 64] set iff values[r] == v. Bits past n in the
  /// last word are zero. The single-value posting scan
  /// (Table::ScanEquals).
  void (*eq_mask)(const uint32_t* values, size_t n, uint32_t v,
                  uint64_t* out);
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
// kernels amortize it over whole bitmaps.
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

inline size_t And3CountWords(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n) {
  return Active().and3_count_words(dst, a, b, n);
}

inline void LatticeCounts(const uint64_t* base, const uint64_t* const* preds,
                          size_t k, const uint32_t* words, size_t n,
                          size_t* counts) {
  Active().lattice_counts(base, preds, k, words, n, counts);
}

inline void EqMask(const uint32_t* values, size_t n, uint32_t v,
                   uint64_t* out) {
  Active().eq_mask(values, n, v, out);
}

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
