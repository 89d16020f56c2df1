// Tier-equivalence tests for the runtime-dispatched SIMD kernels (CRC32C
// and the lattice_counts walk included), plus the lattice's counts under
// every tier. Every kernel is a pure function and
// every tier must return bit-identical results (see common/simd.h); these tests compare each tier
// the CPU can execute against the scalar reference on randomized inputs
// whose cardinalities deliberately straddle the container promotion
// boundary (4095 / 4096 / 4097) and the merge-vs-gallop crossover ratios.
// Under the CI leg that exports FALCON_SIMD_LEVEL=scalar the vector tiers
// are still tested directly through TableFor(), which ignores the override
// and only gates on what the CPU supports.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/lattice.h"
#include "common/logging.h"
#include "datagen/datasets.h"
#include "errorgen/injector.h"

namespace falcon {
namespace {

using simd::Kernels;
using simd::Level;

// Tiers above scalar that this CPU can actually execute. Empty on non-x86
// hardware — the kernel tests then reduce to scalar self-consistency.
std::vector<Level> VectorTiers() {
  std::vector<Level> tiers;
  for (Level level : {Level::kAVX2, Level::kAVX512}) {
    if (simd::TableFor(level) != nullptr) tiers.push_back(level);
  }
  return tiers;
}

std::vector<uint64_t> RandomWords(std::mt19937_64& rng, size_t n,
                                  int and_depth) {
  // AND-ing `and_depth` draws thins the bit density (~2^-depth) so the
  // popcount paths see sparse words, not just half-full ones.
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    w = rng();
    for (int d = 1; d < and_depth; ++d) w &= rng();
  }
  return words;
}

// `card` distinct sorted u16 values drawn uniformly from [0, 65536).
std::vector<uint16_t> RandomSortedU16(std::mt19937_64& rng, size_t card) {
  FALCON_CHECK(card <= 65536);
  // Floyd's sampling keeps this O(card) even at card near the universe.
  std::vector<bool> taken(65536, false);
  std::vector<uint16_t> vals;
  vals.reserve(card);
  for (size_t j = 65536 - card; j < 65536; ++j) {
    size_t t = rng() % (j + 1);
    size_t pick = taken[t] ? j : t;
    taken[pick] = true;
    vals.push_back(static_cast<uint16_t>(pick));
  }
  std::sort(vals.begin(), vals.end());
  return vals;
}

// Cardinalities that straddle the array→bitmap promotion boundary, plus
// small and empty edges and a non-multiple-of-vector-width value.
const size_t kCards[] = {0, 1, 7, 64, 333, 4095, 4096, 4097};

TEST(SimdKernelTest, WordLoopsMatchScalarAcrossTiers) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::mt19937_64 rng(20260808);
  // Lengths straddle the unroll widths (4 words AVX2, 16 words AVX-512)
  // and the full 1024-word container.
  const size_t kLens[] = {0, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 1023, 1024};
  for (Level level : VectorTiers()) {
    const Kernels* best = simd::TableFor(level);
    ASSERT_NE(best, nullptr);
    for (size_t n : kLens) {
      for (int depth : {1, 3, 6}) {
        std::vector<uint64_t> a = RandomWords(rng, n, depth);
        std::vector<uint64_t> b = RandomWords(rng, n, depth);
        EXPECT_EQ(best->popcount_words(a.data(), n),
                  scalar->popcount_words(a.data(), n))
            << simd::LevelName(level) << " n=" << n;
        EXPECT_EQ(best->and_count_words(a.data(), b.data(), n),
                  scalar->and_count_words(a.data(), b.data(), n))
            << simd::LevelName(level) << " n=" << n;
        // The mutating loops: run both tiers on copies, demand identical
        // output words.
        std::vector<uint64_t> d1 = a, d2 = a;
        best->and_words(d1.data(), b.data(), n);
        scalar->and_words(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << simd::LevelName(level) << " and n=" << n;
        d1 = a;
        d2 = a;
        best->andnot_words(d1.data(), b.data(), n);
        scalar->andnot_words(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << simd::LevelName(level) << " andnot n=" << n;
        d1 = a;
        d2 = a;
        best->or_words(d1.data(), b.data(), n);
        scalar->or_words(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << simd::LevelName(level) << " or n=" << n;
        // Fused materialize-and-count: identical output words AND the
        // in-register count must equal a standalone popcount of them.
        std::vector<uint64_t> o1(n, 0xDEAD), o2(n, 0xBEEF);
        size_t c1 = best->and3_count_words(o1.data(), a.data(), b.data(), n);
        size_t c2 = scalar->and3_count_words(o2.data(), a.data(), b.data(), n);
        EXPECT_EQ(o1, o2) << simd::LevelName(level) << " and3 n=" << n;
        EXPECT_EQ(c1, c2) << simd::LevelName(level) << " and3 count n=" << n;
        EXPECT_EQ(c1, scalar->popcount_words(o1.data(), n))
            << simd::LevelName(level) << " and3 recount n=" << n;
        // In-place aliasing (dst == a) is part of the contract.
        d1 = a;
        size_t c3 = best->and3_count_words(d1.data(), d1.data(), b.data(), n);
        EXPECT_EQ(d1, o1) << simd::LevelName(level) << " and3 alias n=" << n;
        EXPECT_EQ(c3, c1) << simd::LevelName(level) << " and3 alias count";
      }
    }
  }
}

TEST(SimdKernelTest, IntersectionMatchesScalarAcrossPromotionBoundary) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::mt19937_64 rng(727);
  for (Level level : VectorTiers()) {
    const Kernels* best = simd::TableFor(level);
    for (size_t na : kCards) {
      for (size_t nb : kCards) {
        std::vector<uint16_t> a = RandomSortedU16(rng, na);
        std::vector<uint16_t> b = RandomSortedU16(rng, nb);
        size_t want = scalar->intersect_u16_count(a.data(), na, b.data(), nb);
        EXPECT_EQ(best->intersect_u16_count(a.data(), na, b.data(), nb), want)
            << simd::LevelName(level) << " " << na << "x" << nb;
        std::vector<uint16_t> out_s(std::min(na, nb) + simd::kIntersectSlack,
                                    0xBEEF);
        std::vector<uint16_t> out_b(std::min(na, nb) + simd::kIntersectSlack,
                                    0xBEEF);
        size_t ns = scalar->intersect_u16(a.data(), na, b.data(), nb,
                                          out_s.data());
        size_t nbm = best->intersect_u16(a.data(), na, b.data(), nb,
                                         out_b.data());
        ASSERT_EQ(ns, want);
        ASSERT_EQ(nbm, want);
        EXPECT_TRUE(std::equal(out_s.begin(), out_s.begin() + ns,
                               out_b.begin()))
            << simd::LevelName(level) << " " << na << "x" << nb;
      }
    }
  }
}

TEST(SimdKernelTest, IntersectionMatchesScalarAroundGallopCrossover) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::mt19937_64 rng(929);
  // Ratios one below / at / above both tiers' crossover constants, so both
  // the merge and gallop code paths run on every tier regardless of which
  // side of its own threshold each ratio lands.
  const size_t kRatios[] = {simd::kGallopRatioScalar - 1,
                            simd::kGallopRatioScalar,
                            simd::kGallopRatioScalar + 1,
                            simd::kGallopRatioSimd - 1,
                            simd::kGallopRatioSimd,
                            simd::kGallopRatioSimd + 1};
  for (Level level : VectorTiers()) {
    const Kernels* best = simd::TableFor(level);
    for (size_t small : {size_t{1}, size_t{8}, size_t{100}}) {
      for (size_t ratio : kRatios) {
        size_t large = std::min<size_t>(small * ratio, 65536);
        std::vector<uint16_t> a = RandomSortedU16(rng, small);
        std::vector<uint16_t> b = RandomSortedU16(rng, large);
        size_t want =
            scalar->intersect_u16_count(a.data(), small, b.data(), large);
        EXPECT_EQ(best->intersect_u16_count(a.data(), small, b.data(), large),
                  want)
            << simd::LevelName(level) << " " << small << "x" << large;
        // Argument order must not matter either.
        EXPECT_EQ(best->intersect_u16_count(b.data(), large, a.data(), small),
                  want)
            << simd::LevelName(level) << " swapped " << small << "x" << large;
        std::vector<uint16_t> out_s(small + simd::kIntersectSlack, 0xBEEF);
        std::vector<uint16_t> out_b(small + simd::kIntersectSlack, 0xBEEF);
        size_t ns = scalar->intersect_u16(a.data(), small, b.data(), large,
                                          out_s.data());
        size_t nbm = best->intersect_u16(a.data(), small, b.data(), large,
                                         out_b.data());
        ASSERT_EQ(ns, want);
        ASSERT_EQ(nbm, want);
        EXPECT_TRUE(std::equal(out_s.begin(), out_s.begin() + ns,
                               out_b.begin()));
      }
    }
  }
}

TEST(SimdKernelTest, ArrayBitmapCountMatchesScalarAcrossTiers) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::mt19937_64 rng(31337);
  for (Level level : VectorTiers()) {
    const Kernels* best = simd::TableFor(level);
    for (size_t card : kCards) {
      for (int depth : {1, 4}) {
        std::vector<uint16_t> vals = RandomSortedU16(rng, card);
        std::vector<uint64_t> bits = RandomWords(rng, 1024, depth);
        EXPECT_EQ(best->array_bitmap_count(vals.data(), card, bits.data()),
                  scalar->array_bitmap_count(vals.data(), card, bits.data()))
            << simd::LevelName(level) << " card=" << card
            << " depth=" << depth;
      }
    }
  }
}

TEST(SimdKernelTest, Crc32cMatchesScalarAcrossTiers) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::vector<std::pair<Level, const Kernels*>> tiers = {
      {Level::kScalar, scalar}};
  for (Level level : VectorTiers()) {
    tiers.emplace_back(level, simd::TableFor(level));
  }
  std::mt19937_64 rng(2718);
  std::vector<unsigned char> buf(300 + 8);
  for (const auto& [level, k] : tiers) {
    // RFC 3720 check value.
    EXPECT_EQ(k->crc32c_extend(0, "123456789", 9), 0xE3069283u)
        << simd::LevelName(level);
    // Every length 0..300 at every start alignment, from a random running
    // CRC, one-shot and split into two chained calls.
    for (size_t offset = 0; offset < 8; ++offset) {
      for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
      for (size_t len = 0; len <= 300; ++len) {
        const unsigned char* p = buf.data() + offset;
        auto crc = static_cast<uint32_t>(rng());
        uint32_t want = scalar->crc32c_extend(crc, p, len);
        size_t split = rng() % (len + 1);
        EXPECT_EQ(k->crc32c_extend(crc, p, len), want)
            << simd::LevelName(level) << " offset=" << offset
            << " len=" << len;
        EXPECT_EQ(k->crc32c_extend(k->crc32c_extend(crc, p, split),
                                   p + split, len - split),
                  want)
            << simd::LevelName(level) << " offset=" << offset
            << " len=" << len << " split=" << split;
      }
    }
  }
}

TEST(SimdKernelTest, ActiveLevelClampsAndParses) {
  Level detected = simd::DetectLevel();
  // Forcing any valid tier succeeds; unsupported tiers clamp instead of
  // crashing, and the published table is never null.
  for (const char* name : {"scalar", "avx2", "avx512", "auto"}) {
    ASSERT_TRUE(simd::SetLevel(name).ok()) << name;
    EXPECT_LE(simd::ActiveLevel(), detected);
    EXPECT_EQ(simd::TableFor(simd::ActiveLevel())->popcount_words,
              simd::Active().popcount_words);
  }
  EXPECT_FALSE(simd::SetLevel("mmx").ok());
  // Restore auto for the remaining tests in this binary.
  ASSERT_TRUE(simd::SetLevel("auto").ok());
}

// ---------------------------------------------------------------------------
// lattice_counts: every tier, in both the full-range and the word-list
// form, must add exactly the per-node AndCount chain's counts.
// ---------------------------------------------------------------------------

// Per-node reference over the words in `words` (all n when empty): each
// node's count is AndCount(parent bitmap, pred[lowest attribute]) down the
// chain tree, with no pruning, so all 2^k nodes are computed directly.
std::vector<size_t> ChainCounts(const std::vector<uint64_t>& base,
                                const std::vector<std::vector<uint64_t>>& preds,
                                const std::vector<uint32_t>* words) {
  const Kernels* scalar = simd::TableFor(Level::kScalar);
  size_t n = base.size();
  size_t k = preds.size();
  std::vector<uint64_t> masked_base = base;
  if (words != nullptr) {
    masked_base.assign(n, 0);
    for (uint32_t w : *words) masked_base[w] = base[w];
  }
  std::vector<size_t> counts(size_t{1} << k, 0);
  // levels[d] holds the bitmap of the node at depth d of the current path.
  std::vector<std::vector<uint64_t>> levels(k + 1, std::vector<uint64_t>(n));
  levels[0] = masked_base;
  counts[0] = scalar->popcount_words(masked_base.data(), n);
  // Recursive walk: children of node m are m | (1 << j) for j below m's
  // lowest attribute.
  auto visit = [&](auto&& self, uint32_t m, size_t depth, size_t below) -> void {
    for (size_t j = 0; j < below; ++j) {
      uint32_t child = m | (uint32_t{1} << j);
      counts[child] = scalar->and_count_words(levels[depth].data(),
                                              preds[j].data(), n);
      scalar->and3_count_words(levels[depth + 1].data(), levels[depth].data(),
                               preds[j].data(), n);
      self(self, child, depth + 1, j);
    }
  };
  visit(visit, 0, 0, k);
  return counts;
}

// Random words of the given density with all-zero and all-one runs mixed
// in, and the last word trimmed to `tail_bits` (0 = a full word), as a
// RowSet's tail word is.
std::vector<uint64_t> LatticeWords(std::mt19937_64& rng, size_t n, int depth,
                                   size_t tail_bits) {
  std::vector<uint64_t> w = RandomWords(rng, n, depth);
  for (uint64_t& x : w) {
    switch (rng() % 8) {
      case 0:
        x = 0;
        break;
      case 1:
        x = ~uint64_t{0};
        break;
      default:
        break;
    }
  }
  if (n > 0 && tail_bits != 0) w.back() &= (uint64_t{1} << tail_bits) - 1;
  return w;
}

void ExpectLatticeCountsMatchChain(std::mt19937_64& rng, size_t k, size_t n,
                                   int base_depth, int pred_depth) {
  size_t tail_bits = rng() % 64;
  std::vector<uint64_t> base = LatticeWords(rng, n, base_depth, tail_bits);
  std::vector<std::vector<uint64_t>> preds;
  std::vector<const uint64_t*> pred_ptrs;
  for (size_t i = 0; i < k; ++i) {
    preds.push_back(LatticeWords(rng, n, pred_depth, tail_bits));
  }
  for (const auto& p : preds) pred_ptrs.push_back(p.data());
  // Word lists: none, every word, and a random ascending subset.
  std::vector<uint32_t> all;
  std::vector<uint32_t> some;
  for (uint32_t w = 0; w < n; ++w) {
    all.push_back(w);
    if (rng() % 3 == 0) some.push_back(w);
  }
  const std::vector<uint32_t> none;
  std::vector<Level> tiers = {Level::kScalar};
  for (Level level : VectorTiers()) tiers.push_back(level);
  const std::vector<uint32_t>* forms[] = {nullptr, &none, &all, &some};
  for (const std::vector<uint32_t>* words : forms) {
    std::vector<size_t> want = ChainCounts(base, preds, words);
    for (Level level : tiers) {
      const Kernels* kern = simd::TableFor(level);
      // The kernel adds into counts: start from an offset, not zero.
      std::vector<size_t> got(size_t{1} << k, 7);
      kern->lattice_counts(base.data(), pred_ptrs.data(), k,
                           words == nullptr ? nullptr : words->data(),
                           words == nullptr ? n : words->size(), got.data());
      for (size_t m = 0; m < got.size(); ++m) {
        ASSERT_EQ(got[m], want[m] + 7)
            << simd::LevelName(level) << " k=" << k << " n=" << n
            << " form=" << (words == nullptr ? "range" : "list")
            << " list_len=" << (words == nullptr ? n : words->size())
            << " node " << m;
      }
    }
  }
}

TEST(LatticeCountsKernelTest, EveryTierMatchesChainReference) {
  std::mt19937_64 rng(20261019);
  // Lengths straddle the 1-, 4- and 8-word blocks of the three tiers.
  const size_t kLens[] = {0, 1, 3, 4, 5, 7, 8, 9, 16, 17, 41};
  for (size_t k = 1; k <= 12; ++k) {
    for (size_t n : kLens) {
      // Dense base, predicates from half-full to sparse.
      for (int pred_depth : {1, 2, 4}) {
        ExpectLatticeCountsMatchChain(rng, k, n, /*base_depth=*/1,
                                      pred_depth);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(LatticeCountsKernelTest, TwentyAttributesOnSparsePredicates) {
  std::mt19937_64 rng(4242);
  for (size_t n : {size_t{1}, size_t{9}, size_t{17}}) {
    ExpectLatticeCountsMatchChain(rng, simd::kLatticeCountsMaxAttrs, n,
                                  /*base_depth=*/1, /*pred_depth=*/5);
    if (HasFatalFailure()) return;
  }
}

// The lattice's counts — from the first full pass and after each applied
// node's delta pass — are identical under every tier.
TEST(LatticeCountsKernelTest, LatticeCountsIdenticalUnderEveryTier) {
  auto ds = MakeSynth(12000, 23);
  ASSERT_TRUE(ds.ok());
  auto injected = InjectErrors(ds->clean, ds->error_spec);
  ASSERT_TRUE(injected.ok());
  ASSERT_FALSE(injected->errors.empty());
  const ErrorCell& e = injected->errors.front();
  Repair repair{e.row, e.col, std::string(ds->clean.pool()->Get(e.clean_value))};
  std::vector<size_t> cols;
  for (size_t c = 0; c < injected->dirty.num_cols() && cols.size() < 6; ++c) {
    if (c != e.col) cols.push_back(c);
  }
  std::vector<std::vector<size_t>> per_tier;
  for (Level level : {Level::kScalar, Level::kAVX2, Level::kAVX512}) {
    if (simd::TableFor(level) == nullptr) continue;
    ASSERT_TRUE(simd::SetLevel(simd::LevelName(level)).ok());
    Table dirty = injected->dirty.Clone();
    auto lat = Lattice::Build(dirty, repair, cols);
    ASSERT_TRUE(lat.ok());
    std::vector<size_t> counts;
    for (NodeId n : {NodeId{0}, lat->top() >> 1, lat->top()}) {
      for (NodeId m = 0; m < lat->num_nodes(); ++m) {
        counts.push_back(lat->Count(m));
      }
      lat->ApplyNode(n, dirty);
    }
    per_tier.push_back(std::move(counts));
  }
  ASSERT_TRUE(simd::SetLevel("auto").ok());
  for (size_t t = 1; t < per_tier.size(); ++t) {
    EXPECT_EQ(per_tier[t], per_tier[0]);
  }
}

}  // namespace
}  // namespace falcon
