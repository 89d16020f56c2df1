// AVX-512 kernel tier: 512-bit word loops with the VPOPCNTDQ instruction
// (8 per-lane 64-bit popcounts per cycle-ish step), 512-row lattice-count
// blocks and a mask-register equality scan. Compiled with -mavx512f
// -mavx512bw -mavx512vl -mavx512vpopcntdq; only executed when CPUID
// reports all four (DetectLevel() == kAVX512). CRC32C reuses the SSE4.2
// kernel of the AVX2 tier.
#include "common/simd.h"

// Self-gating on the predefine set by -mavx512vpopcntdq (only added when
// the compiler supports it), mirroring simd_avx2.cc.
#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "common/simd_lattice_counts.h"

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

// Lattice counts: 512-row blocks, a mask-register zero test and one
// VPOPCNTDQ per visited node.
struct Avx512BlockOps {
  static constexpr size_t kWords = 8;
  using V = __m512i;
  static V Load(const uint64_t* p) { return _mm512_loadu_si512(p); }
  static V And(V a, V b) { return _mm512_and_si512(a, b); }
  static bool Zero(V v) { return _mm512_test_epi64_mask(v, v) == 0; }
  static size_t Pop(V v) {
    return static_cast<size_t>(_mm512_reduce_add_epi64(_mm512_popcnt_epi64(v)));
  }
};

void Avx512LatticeCounts(const uint64_t* base, const uint64_t* const* preds,
                         size_t k, const uint32_t* words, size_t n,
                         size_t* counts) {
  LatticeCountsImpl<Avx512BlockOps>(base, preds, k, words, n, counts);
}

// Column equality scan: four 16-lane compares straight into mask
// registers per 64 rows; the tail uses masked loads, so no scalar loop.
void Avx512EqMask(const uint32_t* values, size_t n, uint32_t v,
                  uint64_t* out) {
  const __m512i needle = _mm512_set1_epi32(static_cast<int>(v));
  for (size_t r0 = 0; r0 < n; r0 += 64) {
    uint64_t word = 0;
    for (size_t j = 0; j < 4; ++j) {
      size_t r = r0 + 16 * j;
      if (r >= n) break;
      __mmask16 lanes = n - r >= 16
                            ? __mmask16{0xFFFF}
                            : static_cast<__mmask16>((1u << (n - r)) - 1);
      __m512i x = _mm512_maskz_loadu_epi32(lanes, values + r);
      uint64_t eq = _mm512_mask_cmpeq_epi32_mask(lanes, x, needle);
      word |= eq << (16 * j);
    }
    out[r0 / 64] = word;
  }
}

}  // namespace

const Kernels* Avx512Kernels() {
  // Start from the AVX2 table (SSE4.2 CRC32C) and override the word
  // loops, the lattice counts and the equality scan with 512-bit
  // versions.
  static const Kernels kernels = [] {
    Kernels k = *Avx2Kernels();
    k.popcount_words = Avx512PopcountWords;
    k.and_count_words = Avx512AndCountWords;
    k.and_words = Avx512AndWords;
    k.andnot_words = Avx512AndNotWords;
    k.or_words = Avx512OrWords;
    k.and3_count_words = Avx512And3CountWords;
    k.lattice_counts = Avx512LatticeCounts;
    k.eq_mask = Avx512EqMask;
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
