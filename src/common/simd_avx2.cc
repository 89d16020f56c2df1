// AVX2 kernel tier. Compiled with -mavx2 -msse4.2 (see
// src/common/CMakeLists.txt); nothing here may be called unless
// DetectLevel() >= kAVX2 — the dispatch layer guarantees that.
//
// Word loops use the PSHUFB nibble-lookup popcount (Mula's method): a
// 16-entry table gives per-nibble counts, PSADBW folds the byte counts
// into four 64-bit lanes, and a vector accumulator defers the horizontal
// reduction to the end of the loop. Array∩array uses the SSE4.2
// PCMPESTRM any-equal kernel over 8-element windows with a shuffle-mask
// table to compact matches, falling back to galloping for heavily skewed
// inputs (crossover kGallopRatioSimd, measured — see DESIGN.md). CRC32C
// uses the SSE4.2 `crc32` instruction (the AVX-512 tier inherits it).
#include "common/simd.h"

// __AVX2__ is defined iff this TU actually got its -mavx2 flag (CMake only
// adds it when the compiler supports it), so an incapable toolchain
// automatically falls back to the nullptr stub below.
#if defined(__AVX2__) && defined(__SSE4_2__)

#include <immintrin.h>

#include <cstring>
#include <utility>

#include "common/simd_lattice_counts.h"

namespace falcon {
namespace simd {
namespace internal {
namespace {

// ---------------------------------------------------------------------------
// Popcount word loops.
// ---------------------------------------------------------------------------

inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline size_t HorizontalSum(__m256i acc) {
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<size_t>(_mm_extract_epi64(sum, 1));
}

size_t Avx2PopcountWords(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i + 4));
    acc = _mm256_add_epi64(acc, Popcount256(a));
    acc = _mm256_add_epi64(acc, Popcount256(b));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) count += static_cast<size_t>(_mm_popcnt_u64(w[i]));
  return count;
}

size_t Avx2AndCountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i va0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i va1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4));
    __m256i vb1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va0, vb0)));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va1, vb1)));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

size_t Avx2And3CountWords(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                          size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i w = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), w);
    acc = _mm256_add_epi64(acc, Popcount256(w));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    count += static_cast<size_t>(_mm_popcnt_u64(w));
  }
  return count;
}

// Plain loops: this TU is compiled with -mavx2, so the autovectorizer
// already emits 256-bit vpand/vpandn/vpor here; intrinsics would add
// nothing but tail-handling code.
void Avx2AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void Avx2AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void Avx2OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

// ---------------------------------------------------------------------------
// Sorted-u16 array intersection (SSE4.2 PCMPESTRM kernel).
// ---------------------------------------------------------------------------

// shuffle_masks[m] compacts the u16 lanes whose bits are set in m to the
// front of the vector. Built once at startup; 4KB.
struct ShuffleTable16 {
  alignas(16) uint8_t masks[256][16];
  ShuffleTable16() {
    for (int m = 0; m < 256; ++m) {
      int pos = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (m & (1 << bit)) {
          masks[m][2 * pos] = static_cast<uint8_t>(2 * bit);
          masks[m][2 * pos + 1] = static_cast<uint8_t>(2 * bit + 1);
          ++pos;
        }
      }
      for (; pos < 8; ++pos) {
        masks[m][2 * pos] = 0xFF;
        masks[m][2 * pos + 1] = 0xFF;
      }
    }
  }
};
const ShuffleTable16 g_shuffle16;

// Galloping fallback shared with the scalar tier in spirit; duplicated
// here so this TU stays self-contained (and gets -mavx2 codegen).
template <bool kMaterialize>
size_t GallopIntersect(const uint16_t* small, size_t ns,
                       const uint16_t* large, size_t nl, uint16_t* out) {
  size_t count = 0;
  size_t lo = 0;
  for (size_t i = 0; i < ns && lo < nl; ++i) {
    uint16_t v = small[i];
    size_t step = 1;
    size_t hi = lo;
    while (hi < nl && large[hi] < v) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > nl) hi = nl;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (large[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < nl && large[lo] == v) {
      if constexpr (kMaterialize) out[count] = v;
      ++count;
      ++lo;
    }
  }
  return count;
}

template <bool kMaterialize>
size_t SseIntersectImpl(const uint16_t* a, size_t na, const uint16_t* b,
                        size_t nb, uint16_t* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (nb / na >= kGallopRatioSimd) {
    return GallopIntersect<kMaterialize>(a, na, b, nb, out);
  }
  size_t count = 0;
  size_t i = 0, j = 0;
  if (na >= 8 && nb >= 8) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      // Bit i of the mask: a[i..i+7][i] equals *some* element of the b
      // window. Values are unique within each array, so every match is
      // counted exactly once across window advances.
      __m128i res = _mm_cmpestrm(
          vb, 8, va, 8,
          _SIDD_UWORD_OPS | _SIDD_CMP_EQUAL_ANY | _SIDD_BIT_MASK);
      int mask = _mm_extract_epi32(res, 0);
      if constexpr (kMaterialize) {
        __m128i compacted = _mm_shuffle_epi8(
            va, _mm_load_si128(reinterpret_cast<const __m128i*>(
                    g_shuffle16.masks[mask])));
        // Full-vector store: may run up to 7 elements past the final
        // count, which is why callers reserve kIntersectSlack (simd.h).
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), compacted);
      }
      count += static_cast<size_t>(_mm_popcnt_u32(mask));
      uint16_t a_max = a[i + 7];
      uint16_t b_max = b[j + 7];
      bool advance_a = a_max <= b_max;
      bool advance_b = b_max <= a_max;
      if (advance_a) {
        i += 8;
        if (i + 8 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (advance_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  // Scalar merge over the tails. Elements of a[i..] were never part of a
  // processed window, so nothing is double counted.
  while (i < na && j < nb) {
    uint16_t x = a[i], y = b[j];
    if (x == y) {
      if constexpr (kMaterialize) out[count] = x;
      ++count;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

size_t Avx2IntersectU16(const uint16_t* a, size_t na, const uint16_t* b,
                        size_t nb, uint16_t* out) {
  return SseIntersectImpl<true>(a, na, b, nb, out);
}

size_t Avx2IntersectU16Count(const uint16_t* a, size_t na, const uint16_t* b,
                             size_t nb) {
  return SseIntersectImpl<false>(a, na, b, nb, nullptr);
}

// ---------------------------------------------------------------------------
// Array∩bitmap membership count.
// ---------------------------------------------------------------------------

size_t Avx2ArrayBitmapCount(const uint16_t* vals, size_t n,
                            const uint64_t* bits) {
  // Gather four words per step and test the selected bits in vector
  // registers. The bitmap side stays resident (8KB), so gathers hit L1.
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v16 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(vals + i));
    __m128i v32 = _mm_cvtepu16_epi32(v16);
    __m128i word_idx = _mm_srli_epi32(v32, 6);
    __m256i words = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(bits), word_idx, 8);
    __m256i shifts = _mm256_and_si256(_mm256_cvtepu32_epi64(v32),
                                      _mm256_set1_epi64x(63));
    acc = _mm256_add_epi64(
        acc, _mm256_and_si256(_mm256_srlv_epi64(words, shifts), one));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    uint16_t v = vals[i];
    count += (bits[v >> 6] >> (v & 63)) & 1;
  }
  return count;
}

// ---------------------------------------------------------------------------
// CRC32C. The `crc32` instruction implements exactly the reflected
// Castagnoli update of the scalar table loop; the 64-bit form consumes
// eight bytes in memory order (x86 is little-endian), the byte form
// finishes the tail.
// ---------------------------------------------------------------------------

uint32_t Sse42Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t state = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; n > 0; --n, ++p) state32 = _mm_crc32_u8(state32, *p);
  return state32 ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Lattice counts: 256-row blocks. A node's popcount is four scalar
// `popcnt`s; the nibble-lookup reduction above pays off only when it is
// amortized over a long loop.
// ---------------------------------------------------------------------------

struct Avx2BlockOps {
  static constexpr size_t kWords = 4;
  using V = __m256i;
  static V Load(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static V And(V a, V b) { return _mm256_and_si256(a, b); }
  static bool Zero(V v) { return _mm256_testz_si256(v, v) != 0; }
  static size_t Pop(V v) {
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    return static_cast<size_t>(
        _mm_popcnt_u64(static_cast<uint64_t>(_mm_cvtsi128_si64(lo))) +
        _mm_popcnt_u64(static_cast<uint64_t>(_mm_extract_epi64(lo, 1))) +
        _mm_popcnt_u64(static_cast<uint64_t>(_mm_cvtsi128_si64(hi))) +
        _mm_popcnt_u64(static_cast<uint64_t>(_mm_extract_epi64(hi, 1))));
  }
};

void Avx2LatticeCounts(const uint64_t* base, const uint64_t* const* preds,
                       size_t k, const uint32_t* words, size_t n,
                       size_t* counts) {
  LatticeCountsImpl<Avx2BlockOps>(base, preds, k, words, n, counts);
}

// ---------------------------------------------------------------------------
// Column equality scan: 8 lanes per compare, one movemask byte each, so 64
// rows are 8 loads, 8 compares and 8 movemasks. A short tail runs scalar.
// ---------------------------------------------------------------------------

void Avx2EqMask(const uint32_t* values, size_t n, uint32_t v, uint64_t* out) {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(v));
  size_t w = 0;
  for (; (w + 1) * 64 <= n; ++w) {
    const uint32_t* p = values + w * 64;
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8 * j));
      __m256i eq = _mm256_cmpeq_epi32(x, needle);
      uint64_t bits = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      word |= bits << (8 * j);
    }
    out[w] = word;
  }
  if (w * 64 < n) {
    uint64_t word = 0;
    for (size_t r = w * 64; r < n; ++r) {
      word |= uint64_t{values[r] == v} << (r - w * 64);
    }
    out[w] = word;
  }
}

constexpr Kernels kAvx2Kernels = {
    Avx2PopcountWords,    Avx2AndCountWords,  Avx2AndWords,
    Avx2AndNotWords,      Avx2OrWords,        Avx2IntersectU16,
    Avx2IntersectU16Count, Avx2ArrayBitmapCount, Avx2And3CountWords,
    Sse42Crc32cExtend,    Avx2LatticeCounts,  Avx2EqMask,
};

}  // namespace

const Kernels* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace internal
}  // namespace simd
}  // namespace falcon

#else  // toolchain cannot target AVX2

namespace falcon {
namespace simd {
namespace internal {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace falcon

#endif
