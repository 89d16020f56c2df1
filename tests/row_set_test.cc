#include "common/row_set.h"

#include <gtest/gtest.h>

namespace falcon {
namespace {

TEST(RowSetTest, StartsEmpty) {
  RowSet s(100);
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.universe_size(), 100u);
}

TEST(RowSetTest, SetTestClear) {
  RowSet s(130);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(129);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(129));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.Count(), 4u);
  s.Clear(63);
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.Count(), 3u);
}

TEST(RowSetTest, FillConstructorRespectsUniverseTail) {
  RowSet s(70, /*fill=*/true);
  EXPECT_EQ(s.Count(), 70u);
  s.SetAll();
  EXPECT_EQ(s.Count(), 70u);
}

TEST(RowSetTest, AndOrAndNot) {
  RowSet a(128);
  RowSet b(128);
  for (size_t i = 0; i < 128; i += 2) a.Set(i);   // Evens.
  for (size_t i = 0; i < 128; i += 3) b.Set(i);   // Multiples of 3.
  RowSet both = a;
  both.And(b);  // Multiples of 6.
  EXPECT_EQ(both.Count(), 22u);  // 0,6,...,126.
  RowSet either = a;
  either.Or(b);
  EXPECT_EQ(either.Count(), 64 + 43 - 22);
  RowSet diff = a;
  diff.AndNot(b);
  EXPECT_EQ(diff.Count(), 64u - 22u);
}

TEST(RowSetTest, IntersectCountMatchesAnd) {
  RowSet a(200);
  RowSet b(200);
  for (size_t i = 0; i < 200; i += 5) a.Set(i);
  for (size_t i = 0; i < 200; i += 7) b.Set(i);
  RowSet c = a;
  c.And(b);
  EXPECT_EQ(a.IntersectCount(b), c.Count());
}

TEST(RowSetTest, AndCountMatchesMaterializedAnd) {
  // The fused kernel must agree with And-then-Count on every word shape:
  // empty, dense, partial tail word.
  for (size_t universe : {1u, 63u, 64u, 65u, 500u}) {
    RowSet a(universe);
    RowSet b(universe);
    for (size_t i = 0; i < universe; i += 3) a.Set(i);
    for (size_t i = 1; i < universe; i += 2) b.Set(i);
    RowSet c = a;
    c.And(b);
    EXPECT_EQ(a.AndCount(b), c.Count()) << "universe " << universe;
    EXPECT_EQ(b.AndCount(a), c.Count()) << "universe " << universe;
    EXPECT_EQ(a.AndCount(RowSet(universe)), 0u);
    EXPECT_EQ(a.AndCount(RowSet(universe, /*fill=*/true)), a.Count());
  }
}

TEST(RowSetTest, DisjointWith) {
  RowSet a(64);
  RowSet b(64);
  a.Set(3);
  a.Set(9);
  b.Set(3);
  b.Set(9);
  b.Set(20);
  RowSet c(64);
  c.Set(40);
  EXPECT_TRUE(a.DisjointWith(c));
  EXPECT_FALSE(a.DisjointWith(b));
}

TEST(RowSetTest, ForEachVisitsAscending) {
  RowSet s(300);
  std::vector<size_t> want = {0, 1, 63, 64, 65, 128, 299};
  for (size_t r : want) s.Set(r);
  std::vector<size_t> got;
  s.ForEach([&](size_t r) { got.push_back(r); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(s.ToVector().size(), want.size());
}

TEST(RowSetTest, AllOfShortCircuits) {
  RowSet s(128);
  s.Set(5);
  s.Set(80);
  size_t visited = 0;
  bool all = s.AllOf([&](size_t r) {
    ++visited;
    return r < 50;
  });
  EXPECT_FALSE(all);
  EXPECT_EQ(visited, 2u);
  EXPECT_TRUE(s.AllOf([](size_t) { return true; }));
}

TEST(RowSetTest, EqualityComparesBits) {
  RowSet a(128);
  RowSet b(128);
  a.Set(1);
  b.Set(2);
  EXPECT_NE(a, b);
  RowSet c(128);
  c.Set(1);
  EXPECT_EQ(a, c);
}

TEST(RowSetTest, FirstElement) {
  RowSet s(128);
  EXPECT_EQ(s.First(), 128u);
  s.Set(77);
  EXPECT_EQ(s.First(), 77u);
  s.Set(12);
  EXPECT_EQ(s.First(), 12u);
}

TEST(RowSetTest, ComplementRespectsUniverseTail) {
  RowSet s(70);
  s.Set(0);
  s.Set(69);
  RowSet c = s.Complement();
  EXPECT_EQ(c.Count(), 68u);
  EXPECT_FALSE(c.Test(0));
  EXPECT_FALSE(c.Test(69));
  EXPECT_TRUE(c.Test(1));
  EXPECT_TRUE(c.Test(68));
  // Double complement restores the original.
  EXPECT_EQ(c.Complement(), s);
}

TEST(RowSetTest, WordAccessorsRoundTrip) {
  RowSet s(130);
  EXPECT_EQ(s.num_words(), 3u);
  s.SetWord(1, uint64_t{1} << 5);  // Row 69.
  EXPECT_TRUE(s.Test(69));
  EXPECT_EQ(s.word(1), uint64_t{1} << 5);
  EXPECT_EQ(s.Count(), 1u);
}

#ifndef NDEBUG
// The binary ops FALCON_DCHECK matching universe sizes in debug builds:
// silently indexing the other set's words is how subtle out-of-bounds reads
// were born.
TEST(RowSetDeathTest, MismatchedUniverseAborts) {
  RowSet a(10);
  RowSet b(128);
  EXPECT_DEATH(a.And(b), "universe_size_");
  EXPECT_DEATH(a.Or(b), "universe_size_");
  EXPECT_DEATH(a.AndNot(b), "universe_size_");
  EXPECT_DEATH(a.IntersectCount(b), "universe_size_");
  EXPECT_DEATH(a.DisjointWith(b), "universe_size_");
}
#endif

}  // namespace
}  // namespace falcon
