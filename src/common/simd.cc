// Scalar kernel tier plus the runtime dispatch plumbing. The scalar
// kernels are the portable reference implementations every other tier is
// tested against; they are also what ships on CPUs without AVX2. This TU
// is compiled with the project's baseline flags only — no -m options — so
// the fallback really is executable anywhere.
#include "common/simd.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/logging.h"
#include "common/simd_lattice_counts.h"

namespace falcon {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels. The word loops are written as plain reductions so the
// compiler's autovectorizer can do what it wants with the baseline ISA;
// hand-unrolling here measured slower under -O3.
// ---------------------------------------------------------------------------

size_t ScalarPopcountWords(const uint64_t* w, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += std::popcount(w[i]);
  return count;
}

size_t ScalarAndCountWords(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

void ScalarAndWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void ScalarAndNotWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void ScalarOrWords(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

size_t ScalarAnd3CountWords(uint64_t* dst, const uint64_t* a,
                            const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    count += std::popcount(w);
  }
  return count;
}

// Galloping intersection: binary-probe the large side for each element of
// the small side. Shared by all tiers for heavily skewed inputs.
template <bool kMaterialize>
size_t GallopIntersect(const uint16_t* small, size_t ns,
                       const uint16_t* large, size_t nl, uint16_t* out) {
  size_t count = 0;
  size_t lo = 0;
  for (size_t i = 0; i < ns && lo < nl; ++i) {
    uint16_t v = small[i];
    // Exponential probe then binary search within the bracketed range.
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
size_t ScalarIntersectImpl(const uint16_t* a, size_t na, const uint16_t* b,
                           size_t nb, uint16_t* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (nb / na >= kGallopRatioScalar) {
    return GallopIntersect<kMaterialize>(a, na, b, nb, out);
  }
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    uint16_t va = a[i], vb = b[j];
    if (va == vb) {
      if constexpr (kMaterialize) out[count] = va;
      ++count;
      ++i;
      ++j;
    } else if (va < vb) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

size_t ScalarIntersectU16(const uint16_t* a, size_t na, const uint16_t* b,
                          size_t nb, uint16_t* out) {
  return ScalarIntersectImpl<true>(a, na, b, nb, out);
}

size_t ScalarIntersectU16Count(const uint16_t* a, size_t na,
                               const uint16_t* b, size_t nb) {
  return ScalarIntersectImpl<false>(a, na, b, nb, nullptr);
}

size_t ScalarArrayBitmapCount(const uint16_t* vals, size_t n,
                              const uint64_t* bits) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    uint16_t v = vals[i];
    count += (bits[v >> 6] >> (v & 63)) & 1;
  }
  return count;
}

// Byte-at-a-time lookup table for the reflected Castagnoli polynomial
// 0x82F63B78: the portable CRC32C and the reference the SSE4.2 tiers are
// tested against.
constexpr std::array<uint32_t, 256> kCrc32cTable = [] {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    t[i] = crc;
  }
  return t;
}();

uint32_t ScalarCrc32cExtend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    state = kCrc32cTable[(state ^ p[i]) & 0xFF] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

// One 64-row word per block: the portable lattice_counts reference.
struct ScalarBlockOps {
  static constexpr size_t kWords = 1;
  using V = uint64_t;
  static V Load(const uint64_t* p) { return *p; }
  static V And(V a, V b) { return a & b; }
  static bool Zero(V v) { return v == 0; }
  static size_t Pop(V v) { return static_cast<size_t>(std::popcount(v)); }
};

void ScalarLatticeCounts(const uint64_t* base, const uint64_t* const* preds,
                         size_t k, const uint32_t* words, size_t n,
                         size_t* counts) {
  internal::LatticeCountsImpl<ScalarBlockOps>(base, preds, k, words, n,
                                              counts);
}

constexpr Kernels kScalarKernels = {
    ScalarPopcountWords,   ScalarAndCountWords,    ScalarAndWords,
    ScalarAndNotWords,     ScalarOrWords,          ScalarIntersectU16,
    ScalarIntersectU16Count, ScalarArrayBitmapCount, ScalarAnd3CountWords,
    ScalarCrc32cExtend,    ScalarLatticeCounts,
};

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

// The active table is published through an atomic pointer so SetLevel (used
// by tests and flag parsing at startup) is safe against concurrent readers.
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<Level> g_active_level{Level::kScalar};

Level ResolveInitialLevel() {
  Level level = DetectLevel();
  if (const char* env = std::getenv("FALCON_SIMD_LEVEL")) {
    StatusOr<Level> parsed = ParseLevel(env);
    if (!parsed.ok()) {
      FALCON_LOG(Warning) << "ignoring FALCON_SIMD_LEVEL: "
                          << parsed.status().ToString();
    } else if (*parsed > level) {
      FALCON_LOG(Warning) << "FALCON_SIMD_LEVEL=" << LevelName(*parsed)
                          << " not supported by this CPU; using "
                          << LevelName(level);
    } else {
      level = *parsed;
    }
  }
  return level;
}

const Kernels* Publish(Level level) {
  const Kernels* table = TableFor(level);
  FALCON_CHECK(table != nullptr);
  g_active_level.store(level, std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return table;
}

const Kernels* InitOnce() {
  // First use resolves env + CPUID once; later SetLevel calls overwrite.
  static const Kernels* table = Publish(ResolveInitialLevel());
  return table;
}

}  // namespace

Level DetectLevel() {
  static const Level level = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    // The AVX-512 tier uses F+BW+VL plus VPOPCNTDQ for the popcount loops.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vpopcntdq")) {
      return Level::kAVX512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
      return Level::kAVX2;
    }
#endif
    return Level::kScalar;
  }();
  return level;
}

Level ActiveLevel() {
  InitOnce();
  return g_active_level.load(std::memory_order_relaxed);
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAVX2:
      return "avx2";
    case Level::kAVX512:
      return "avx512";
  }
  return "unknown";
}

StatusOr<Level> ParseLevel(std::string_view name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAVX2;
  if (name == "avx512") return Level::kAVX512;
  if (name == "auto") return DetectLevel();
  return Status::InvalidArgument("unknown SIMD level '" + std::string(name) +
                                 "' (want scalar|avx2|avx512|auto)");
}

Status SetLevel(std::string_view name) {
  StatusOr<Level> parsed = ParseLevel(name);
  if (!parsed.ok()) return parsed.status();
  Level level = *parsed;
  if (level > DetectLevel()) {
    FALCON_LOG(Warning) << "SIMD level " << LevelName(level)
                        << " not supported by this CPU; using "
                        << LevelName(DetectLevel());
    level = DetectLevel();
  }
  Publish(level);
  return Status::Ok();
}

const Kernels& Active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = InitOnce();
  return *table;
}

void ApplyLevelFlag(const Flags& flags) {
  std::string level = flags.GetString(
      "simd_level", "auto",
      "SIMD kernel tier: auto|scalar|avx2|avx512 (clamped to CPU support; "
      "FALCON_SIMD_LEVEL env is the flagless equivalent)");
  Status st = SetLevel(level);
  if (!st.ok()) {
    FALCON_LOG(Error) << "--simd_level=" << level << ": " << st.ToString();
    std::exit(2);
  }
}

const Kernels* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarKernels;
    case Level::kAVX2:
      return DetectLevel() >= Level::kAVX2 ? internal::Avx2Kernels()
                                           : nullptr;
    case Level::kAVX512:
      return DetectLevel() >= Level::kAVX512 ? internal::Avx512Kernels()
                                             : nullptr;
  }
  return nullptr;
}

namespace internal {

const Kernels* ScalarKernels() { return &kScalarKernels; }

}  // namespace internal

}  // namespace simd
}  // namespace falcon
