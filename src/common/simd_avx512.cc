// AVX-512 kernel tier: 512-bit word loops with the VPOPCNTDQ instruction
// (8 per-lane 64-bit popcounts per cycle-ish step) and an 8-wide gathered
// array∩bitmap membership test using mask registers. Compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq; only executed when
// CPUID reports all four (DetectLevel() == kAVX512). The sorted-array
// intersection reuses the SSE4.2 kernel from the AVX2 tier — 128-bit
// PCMPESTRM has no 512-bit counterpart worth the lane-crossing cost at
// array-container sizes (≤4096 elements).
#include "common/simd.h"

// Self-gating on the predefine set by -mavx512vpopcntdq (only added when
// the compiler supports it), mirroring simd_avx2.cc.
#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

namespace falcon {
namespace simd {
namespace internal {
namespace {

size_t Avx512PopcountWords(const uint64_t* w, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i a = _mm512_loadu_si512(w + i);
    __m512i b = _mm512_loadu_si512(w + i + 8);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(a));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(b));
  }
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
  }
  size_t count = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) count += static_cast<size_t>(_mm_popcnt_u64(w[i]));
  return count;
}

size_t Avx512AndCountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i x0 = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                  _mm512_loadu_si512(b + i));
    __m512i x1 = _mm512_and_si512(_mm512_loadu_si512(a + i + 8),
                                  _mm512_loadu_si512(b + i + 8));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x0));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x1));
  }
  for (; i + 8 <= n; i += 8) {
    __m512i x = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                 _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  size_t count = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    count += static_cast<size_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

size_t Avx512And3CountWords(uint64_t* dst, const uint64_t* a,
                            const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                 _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(dst + i, w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t count = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    count += static_cast<size_t>(_mm_popcnt_u64(w));
  }
  return count;
}

void Avx512AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_and_si512(_mm512_loadu_si512(dst + i),
                                                  _mm512_loadu_si512(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void Avx512AndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // andnot computes ~first & second.
    _mm512_storeu_si512(
        dst + i, _mm512_andnot_si512(_mm512_loadu_si512(src + i),
                                     _mm512_loadu_si512(dst + i)));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

void Avx512OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_or_si512(_mm512_loadu_si512(dst + i),
                                                 _mm512_loadu_si512(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

size_t Avx512ArrayBitmapCount(const uint16_t* vals, size_t n,
                              const uint64_t* bits) {
  // Gather eight words per step, build 1<<(v&63) per lane, and let the
  // mask register do the membership test: one popcount per 8 values.
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i six3 = _mm512_set1_epi64(63);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i v16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i));
    __m256i v32 = _mm256_cvtepu16_epi32(v16);
    __m256i word_idx = _mm256_srli_epi32(v32, 6);
    // Masked forms with an explicit zero source: the plain intrinsics go
    // through _mm512_undefined_epi32 and trip -Wmaybe-uninitialized.
    __m512i words = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(),
                                                static_cast<__mmask8>(0xFF),
                                                word_idx, bits, 8);
    __m512i shifts = _mm512_and_si512(
        _mm512_maskz_cvtepu32_epi64(static_cast<__mmask8>(0xFF), v32), six3);
    __m512i sel = _mm512_sllv_epi64(one, shifts);
    __mmask8 hit = _mm512_test_epi64_mask(words, sel);
    count += static_cast<size_t>(_mm_popcnt_u32(hit));
  }
  for (; i < n; ++i) {
    uint16_t v = vals[i];
    count += (bits[v >> 6] >> (v & 63)) & 1;
  }
  return count;
}

}  // namespace

const Kernels* Avx512Kernels() {
  // Start from the AVX2 table (SSE4.2 array intersection and CRC32C) and
  // override the word loops and the gathered membership test with 512-bit
  // versions.
  static const Kernels kernels = [] {
    Kernels k = *Avx2Kernels();
    k.popcount_words = Avx512PopcountWords;
    k.and_count_words = Avx512AndCountWords;
    k.and_words = Avx512AndWords;
    k.andnot_words = Avx512AndNotWords;
    k.or_words = Avx512OrWords;
    k.array_bitmap_count = Avx512ArrayBitmapCount;
    k.and3_count_words = Avx512And3CountWords;
    return k;
  }();
  return &kernels;
}

}  // namespace internal
}  // namespace simd
}  // namespace falcon

#else  // toolchain cannot target this AVX-512 subset

namespace falcon {
namespace simd {
namespace internal {

const Kernels* Avx512Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace falcon

#endif
