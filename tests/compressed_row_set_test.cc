// Randomized dense-vs-compressed equivalence over the full kernel surface,
// plus targeted tests at the container promotion/demotion boundaries and
// HybridRowSet mixed-representation dispatch.
#include "common/compressed_row_set.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/hybrid_row_set.h"
#include "common/rng.h"
#include "common/row_set.h"

namespace falcon {
namespace {

// Random set over `universe` with roughly `density` fill, plus optional
// run-shaped intervals so all three container encodings appear.
RowSet RandomDense(Rng& rng, size_t universe, double density, int runs) {
  RowSet out(universe);
  size_t target = static_cast<size_t>(density * static_cast<double>(universe));
  for (size_t i = 0; i < target; ++i) {
    out.Set(rng.NextUint(universe));
  }
  for (int r = 0; r < runs && universe > 2; ++r) {
    size_t start = rng.NextUint(universe);
    size_t len = 1 + rng.NextUint(std::min<size_t>(universe - start, 3000));
    for (size_t i = start; i < start + len; ++i) out.Set(i);
  }
  return out;
}

void ExpectSame(const RowSet& dense, const CompressedRowSet& comp) {
  ASSERT_EQ(dense.universe_size(), comp.universe_size());
  EXPECT_EQ(dense.Count(), comp.Count());
  EXPECT_EQ(dense.Empty(), comp.Empty());
  EXPECT_EQ(dense.First(), comp.First());
  EXPECT_TRUE(comp == dense);
  EXPECT_EQ(dense.ToVector(), comp.ToVector());
}

TEST(CompressedRowSetTest, RoundTripAcrossShapes) {
  Rng rng(7);
  // Universe sizes straddling one/many chunks and non-word-aligned tails.
  for (size_t universe : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                          size_t{4096}, size_t{65536}, size_t{65537},
                          size_t{200000}}) {
    for (double density : {0.0, 0.0005, 0.02, 0.3, 0.95}) {
      RowSet dense = RandomDense(rng, universe, density, rng.NextUint(3));
      CompressedRowSet comp = CompressedRowSet::FromDense(dense);
      ExpectSame(dense, comp);
      EXPECT_EQ(comp.ToDense(), dense);
      comp.RunOptimize();
      ExpectSame(dense, comp);
      EXPECT_EQ(comp.ToDense(), dense);
    }
  }
}

TEST(CompressedRowSetTest, FullAndEmptySets) {
  for (size_t universe : {size_t{64}, size_t{65537}, size_t{131072}}) {
    CompressedRowSet full(universe, true);
    RowSet dense_full(universe, true);
    ExpectSame(dense_full, full);
    // A full set is runs, not bitmaps.
    EXPECT_EQ(full.container_stats().bitmaps, 0u);

    CompressedRowSet empty(universe);
    ExpectSame(RowSet(universe), empty);
    EXPECT_EQ(empty.First(), universe);
  }
}

TEST(CompressedRowSetTest, PromotionDemotionRoundTrip) {
  // Walk cardinality up through the array→bitmap boundary and back down.
  const size_t universe = 1 << 16;
  CompressedRowSet comp(universe);
  RowSet dense(universe);
  // 4095, 4096, 4097: the standard threshold and both neighbors. Use a
  // stride so values spread over the chunk.
  for (size_t card : {size_t{4095}, size_t{4096}, size_t{4097}}) {
    comp.ClearAll();
    dense.ClearAll();
    for (size_t i = 0; i < card; ++i) {
      size_t row = (i * 16) % universe + (i * 16) / universe;
      comp.Set(row);
      dense.Set(row);
    }
    ExpectSame(dense, comp);
    auto stats = comp.container_stats();
    if (card <= 4096) {
      EXPECT_EQ(stats.arrays, 1u) << card;
    } else {
      EXPECT_EQ(stats.bitmaps, 1u) << card;
    }
    // Remove one element: 4097 → 4096 must demote back to an array.
    size_t victim = comp.First();
    comp.Clear(victim);
    dense.Clear(victim);
    ExpectSame(dense, comp);
    EXPECT_EQ(comp.container_stats().arrays, 1u) << card;
    // Idempotent mutations.
    comp.Clear(victim);
    EXPECT_EQ(comp.Count(), dense.Count());
    size_t back = dense.First();
    comp.Set(back);
    comp.Set(back);
    dense.Set(back);
    ExpectSame(dense, comp);
  }
}

TEST(CompressedRowSetTest, RunContainerPointMutation) {
  const size_t universe = 1 << 16;
  CompressedRowSet comp(universe, true);
  RowSet dense(universe, true);
  ASSERT_GT(comp.container_stats().runs, 0u);
  // Point-clearing a run container un-runs it and stays equivalent.
  comp.Clear(1000);
  dense.Clear(1000);
  comp.Clear(0);
  dense.Clear(0);
  comp.Set(1000);
  dense.Set(1000);
  ExpectSame(dense, comp);
}

TEST(CompressedRowSetTest, RandomizedKernelEquivalence) {
  Rng rng(1234);
  const int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    size_t universe = 1000 + rng.NextUint(200000);
    double da = rng.NextUint(100) < 30 ? 0.001 : 0.2;
    double db = rng.NextUint(100) < 50 ? 0.003 : 0.4;
    RowSet a = RandomDense(rng, universe, da, rng.NextUint(3));
    RowSet b = RandomDense(rng, universe, db, rng.NextUint(3));
    CompressedRowSet ca = CompressedRowSet::FromDense(a);
    CompressedRowSet cb = CompressedRowSet::FromDense(b);
    if (t % 2 == 0) {
      ca.RunOptimize();  // Exercise run-container kernel paths.
    } else {
      cb.RunOptimize();
    }

    // Fused/count/predicate kernels (compressed∘compressed and mixed).
    EXPECT_EQ(a.AndCount(b), ca.AndCount(cb));
    EXPECT_EQ(a.AndCount(b), ca.AndCount(b));
    // a ⊆ b iff |a ∩ b| = |a|.
    EXPECT_EQ(a.AndCount(b) == a.Count(), ca.IsSubsetOf(cb));
    EXPECT_EQ(a.AndCount(b) == a.Count(), ca.IsSubsetOf(b));
    EXPECT_EQ(a.AndCount(b) == b.Count(), ca.ContainsAll(b));
    EXPECT_EQ(a.DisjointWith(b), ca.DisjointWith(cb));
    EXPECT_EQ(a.DisjointWith(b), ca.DisjointWith(b));

    // A set is always a subset of itself and disjoint sets really are.
    EXPECT_TRUE(ca.IsSubsetOf(ca));
    RowSet none(universe);
    EXPECT_TRUE(CompressedRowSet::FromDense(none).DisjointWith(ca));

    // Materializing kernels, compressed∘compressed.
    {
      RowSet ref = a;
      ref.And(b);
      CompressedRowSet got = ca;
      got.And(cb);
      ExpectSame(ref, got);
    }
    {
      RowSet ref = a;
      ref.AndNot(b);
      CompressedRowSet got = ca;
      got.AndNot(cb);
      ExpectSame(ref, got);
    }
    {
      RowSet ref = a;
      ref.Or(b);
      CompressedRowSet got = ca;
      got.Or(cb);
      ExpectSame(ref, got);
    }
    // Mixed: compressed op dense.
    {
      RowSet ref = a;
      ref.And(b);
      CompressedRowSet got = ca;
      got.And(b);
      ExpectSame(ref, got);
    }
    {
      RowSet ref = a;
      ref.AndNot(b);
      CompressedRowSet got = ca;
      got.AndNot(b);
      ExpectSame(ref, got);
    }
    {
      RowSet ref = a;
      ref.Or(b);
      CompressedRowSet got = ca;
      got.Or(b);
      ExpectSame(ref, got);
    }
    // AndInto: dense &= compressed.
    {
      RowSet ref = b;
      ref.And(a);
      RowSet got = b;
      ca.AndInto(got);
      EXPECT_EQ(ref, got);
    }
    // Complement.
    {
      RowSet ref = a.Complement();
      CompressedRowSet got = ca.Complement();
      ExpectSame(ref, got);
    }
    // ForEach/AllOf agreement.
    {
      std::vector<uint32_t> seen;
      ca.ForEach([&](size_t r) { seen.push_back(static_cast<uint32_t>(r)); });
      EXPECT_EQ(seen, a.ToVector());
      EXPECT_TRUE(ca.AllOf([&](size_t r) { return a.Test(r); }));
      EXPECT_EQ(ca.AllOf([&](size_t r) { return r != a.First(); }), a.Empty());
    }
    // Word-block export in random slices matches dense words.
    {
      size_t nwords = a.num_words();
      size_t begin = rng.NextUint(nwords);
      size_t count = 1 + rng.NextUint(nwords - begin);
      std::vector<uint64_t> out(count);
      ca.CopyWords(begin, count, out.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], a.word(begin + i)) << "word " << begin + i;
      }
    }
  }
}

TEST(CompressedRowSetTest, HeapBytesSparseMuchSmallerThanDense) {
  const size_t universe = 1 << 20;
  RowSet dense(universe);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) dense.Set(rng.NextUint(universe));
  CompressedRowSet comp = CompressedRowSet::FromDense(dense);
  EXPECT_EQ(comp.ToDense(), dense);
  // 100 scattered rows of 1M: arrays cost ~2 B/row vs 128 KB dense.
  EXPECT_LT(comp.HeapBytes() * 5, dense.HeapBytes());
}

TEST(CompressedRowSetTest, ContainerStatsTallies) {
  const size_t universe = 3 << 16;
  RowSet dense(universe);
  // Chunk 0: sparse (array). Chunk 1: dense (bitmap). Chunk 2: interval (run).
  for (size_t i = 0; i < 100; ++i) dense.Set(i * 7);
  for (size_t i = 0; i < 65536; i += 2) dense.Set((1 << 16) + i);
  for (size_t i = 0; i < 30000; ++i) dense.Set((2 << 16) + i);
  CompressedRowSet comp = CompressedRowSet::FromDense(dense);
  auto stats = comp.container_stats();
  EXPECT_EQ(stats.arrays, 1u);
  EXPECT_EQ(stats.bitmaps, 1u);
  EXPECT_EQ(stats.runs, 1u);
  ExpectSame(dense, comp);
}

// --- HybridRowSet storage policy -------------------------------------------

TEST(HybridRowSetTest, CompactPolicyIsDeterministicOnCount) {
  const size_t universe = 1 << 16;
  RowSet sparse(universe);
  for (size_t i = 0; i < 64; ++i) sparse.Set(i * 1000);
  HybridRowSet h(sparse);
  h.Compact(sparse.Count());
  EXPECT_TRUE(h.compressed());
  EXPECT_EQ(h.ToDense(), sparse);

  RowSet dense_set(universe);
  for (size_t i = 0; i < universe; i += 2) dense_set.Set(i);
  HybridRowSet hd(dense_set);
  hd.Compact(dense_set.Count());
  EXPECT_FALSE(hd.compressed());

  // Small universes always stay dense.
  RowSet tiny(100);
  tiny.Set(3);
  HybridRowSet ht(tiny);
  ht.Compact(1);
  EXPECT_FALSE(ht.compressed());

  // A compressed set whose density rises past the hysteresis densifies.
  for (size_t i = 0; i < universe; i += 2) h.Set(i);
  h.Compact(h.Count());
  EXPECT_FALSE(h.compressed());
  RowSet both = dense_set;
  both.Or(sparse);
  EXPECT_EQ(h.ToDense(), both);
}

// --- RowSet::SetWord tail-trim regression (satellite bugfix) ----------------

TEST(RowSetTest, SetWordTrimsTailBeyondUniverse) {
  RowSet s(70);  // Two words; tail word holds rows 64..69 only.
  s.SetWord(1, ~uint64_t{0});
  EXPECT_EQ(s.Count(), 6u);  // Not 64: bits 70..127 must be trimmed.
  EXPECT_EQ(s.Complement().Count(), 64u);
  // The full word is unaffected.
  s.SetWord(0, ~uint64_t{0});
  EXPECT_EQ(s.Count(), 70u);
  // Equal to the set built by per-row Set (no hidden tail bits).
  RowSet ref(70);
  for (size_t r = 0; r < 70; ++r) ref.Set(r);
  EXPECT_EQ(s, ref);
}

}  // namespace
}  // namespace falcon
