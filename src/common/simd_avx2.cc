// AVX2 kernel tier. Compiled with -mavx2 -msse4.2 (see
// src/common/CMakeLists.txt); nothing here may be called unless
// DetectLevel() >= kAVX2 — the dispatch layer guarantees that.
//
// Word loops use the PSHUFB nibble-lookup popcount (Mula's method): a
// 16-entry table gives per-nibble counts, PSADBW folds the byte counts
// into four 64-bit lanes, and a vector accumulator defers the horizontal
// reduction to the end of the loop. CRC32C uses the SSE4.2 `crc32`
// instruction (the AVX-512 tier inherits it).
#include "common/simd.h"

// __AVX2__ is defined iff this TU actually got its -mavx2 flag (CMake only
// adds it when the compiler supports it), so an incapable toolchain
// automatically falls back to the nullptr stub below.
#if defined(__AVX2__) && defined(__SSE4_2__)

#include <immintrin.h>

#include <cstring>

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
    Avx2AndNotWords,      Avx2OrWords,        Avx2And3CountWords,
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
