// Universe growth for streaming append: RowSet::Resize semantics (and the
// mismatched-universe guard rails), deterministic parallel posting builds,
// PostingIndex::ApplyAppend vs rebuild (rows, form and bytes), and the
// incremental violation detector vs its one-shot ground truth.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/row_set.h"
#include "common/thread_pool.h"
#include "core/violation_detector.h"
#include "datagen/spec.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

// ---------------------------------------------------------------------------
// Bitmap universe growth.

TEST(RowSetResizeTest, PreservesBitsAndClearsNewRows) {
  RowSet s(100);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(99);
  s.Resize(300);
  EXPECT_EQ(s.universe_size(), 300u);
  EXPECT_EQ(s.Count(), 4u);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(99));
  for (size_t r = 100; r < 300; ++r) {
    ASSERT_FALSE(s.Test(r)) << r;
  }
  // New rows are usable immediately.
  s.Set(250);
  EXPECT_EQ(s.Count(), 5u);
  // Complement respects the grown universe (tail bits stay trimmed).
  EXPECT_EQ(s.Complement().Count(), 295u);
}

TEST(RowSetResizeTest, SameSizeResizeIsANoOp) {
  RowSet s(70);
  s.Set(69);
  s.Resize(70);
  EXPECT_EQ(s.universe_size(), 70u);
  EXPECT_TRUE(s.Test(69));
}

TEST(RowSetResizeTest, GrownOperandsCombine) {
  RowSet a(50), b(50);
  a.Set(7);
  b.Set(7);
  b.Set(13);
  a.Resize(200);
  b.Resize(200);
  a.Set(150);
  b.Set(150);
  a.And(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_TRUE(a.Test(7));
  EXPECT_TRUE(a.Test(150));
}

// FALCON_DCHECK is compiled out under NDEBUG, so the guard-rail death
// tests only exist in debug builds.
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(RowSetResizeDeathTest, MismatchedUniverseOpsAbort) {
  RowSet grown(64), stale(64);
  grown.Resize(128);
  EXPECT_DEATH(grown.And(stale), "universe");
  EXPECT_DEATH(grown.Or(stale), "universe");
  EXPECT_DEATH(grown.AndNot(stale), "universe");
}

TEST(RowSetResizeDeathTest, ShrinkingAborts) {
  RowSet s(128);
  EXPECT_DEATH(s.Resize(64), "");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------------------
// Posting index: parallel builds and append maintenance.

constexpr char kSpecJson[] = R"({
  "name": "t", "seed": 17, "rows": 3000,
  "fields": [
    {"name": "id",    "dist": "unique",  "prefix": "R"},
    {"name": "city",  "dist": "zipf",    "domain": 20, "skew": 1.0,
     "prefix": "C"},
    {"name": "state", "dist": "derived", "parents": ["city"], "domain": 6,
     "prefix": "S"},
    {"name": "zip",   "dist": "uniform", "domain": 25, "prefix": "Z"}
  ],
  "append": {"batches": 3, "rows_per_batch": 500, "error_rate": 0.0}
})";

struct SpecTable {
  SpecGenerator gen;
  Table table;
};

SpecTable MakeSpecTable(size_t rows = 0) {
  auto spec = GeneratorSpec::Parse(kSpecJson);
  EXPECT_TRUE(spec.ok());
  auto gen = SpecGenerator::Make(*spec);
  EXPECT_TRUE(gen.ok());
  Table table = gen->NewTable();
  EXPECT_TRUE(gen->AppendRows(&table, rows == 0 ? spec->rows : rows).ok());
  return {*gen, std::move(table)};
}

// Bounded-domain columns of the spec table (everything but the key).
const std::vector<size_t> kBounded = {1, 2, 3};

// Canonical digest over cached postings: (col, value, row stream) → FNV,
// plus each posting's form and payload bytes when `with_form`.
uint64_t PostingDigest(PostingIndex& index, const Table& table,
                       bool with_form = false) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (size_t c : kBounded) {
    std::set<ValueId> values(table.column(c).begin(), table.column(c).end());
    for (ValueId v : values) {
      mix(c);
      mix(v);
      const Posting& p = index.Postings(c, v);
      p.ForEach([&](size_t r) { mix(r + 0x9e3779b9ull); });
      if (with_form) {
        mix(p.dense());
        mix(p.PayloadBytes());
      }
    }
  }
  return h;
}

TEST(PostingBuildTest, ParallelBuildMatchesSerialAtEveryThreadCount) {
  SpecTable st = MakeSpecTable();
  PostingIndex serial(&st.table, PostingIndexOptions{});
  for (size_t c : kBounded) serial.BuildColumn(c);
  uint64_t want = PostingDigest(serial, st.table);
  for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
    ThreadPool tp(threads);
    PostingIndex parallel(&st.table, PostingIndexOptions{});
    for (size_t c : kBounded) parallel.BuildColumn(c, &tp);
    EXPECT_EQ(PostingDigest(parallel, st.table), want) << threads;
  }
  // And both match the lazy per-probe path.
  PostingIndex lazy(&st.table, PostingIndexOptions{});
  EXPECT_EQ(PostingDigest(lazy, st.table), want);
}

TEST(PostingBuildTest, CompressedBuildIsBitIdentical) {
  SpecTable st = MakeSpecTable();
  PostingIndexOptions dense_opts;
  PostingIndexOptions comp_opts;
  comp_opts.compressed = true;
  PostingIndex dense(&st.table, dense_opts);
  PostingIndex comp(&st.table, comp_opts);
  ThreadPool tp(2);
  for (size_t c : kBounded) {
    dense.BuildColumn(c);
    comp.BuildColumn(c, &tp);
  }
  EXPECT_EQ(PostingDigest(dense, st.table), PostingDigest(comp, st.table));
}

TEST(PostingAppendTest, ApplyAppendMatchesRebuildOnGrownTable) {
  for (bool compressed : {false, true}) {
    SpecTable st = MakeSpecTable();
    PostingIndexOptions opts;
    opts.compressed = compressed;
    PostingIndex index(&st.table, opts);
    for (size_t c : kBounded) index.BuildColumn(c);

    // Grow by three batches, maintaining after each.
    for (int b = 0; b < 3; ++b) {
      size_t old_rows = st.table.num_rows();
      auto chunk = st.gen.Chunk(old_rows, 500);
      ASSERT_TRUE(chunk.ok());
      st.table.AppendBatch(*chunk);
      index.ApplyAppend(old_rows);
      ASSERT_GT(index.stats().append_rows, 0u);
    }

    // Rows, form and bytes all equal a fresh build of the grown table.
    PostingIndex rebuilt(&st.table, opts);
    for (size_t c : kBounded) rebuilt.BuildColumn(c);
    EXPECT_EQ(PostingDigest(index, st.table, /*with_form=*/true),
              PostingDigest(rebuilt, st.table, /*with_form=*/true))
        << "compressed=" << compressed;
    EXPECT_EQ(index.cached_bytes(), rebuilt.cached_bytes());
    ValueId v = st.table.cell(0, 1);
    EXPECT_EQ(index.Postings(1, v).ToRowSet(st.table.num_rows()),
              st.table.ScanEquals(1, v));
  }
}

// ---------------------------------------------------------------------------
// Incremental violation detection.

TEST(IncrementalDetectorTest, AppendMatchesOneShotDetection) {
  // Generate a table with real FD structure, corrupt appended batches so
  // the groups actually gain violations.
  auto spec = GeneratorSpec::Parse(kSpecJson);
  ASSERT_TRUE(spec.ok());
  GeneratorSpec s = *spec;
  s.append.error_rate = 0.01;
  auto sw = MakeSpecWorkload(s);
  ASSERT_TRUE(sw.ok());
  Table table = sw->workload.dirty.Clone();

  IncrementalViolationDetector detector;
  detector.Full(table);
  ASSERT_FALSE(detector.fds().empty());

  for (int b = 0; b < 3; ++b) {
    size_t old_rows = table.num_rows();
    auto chunk = sw->generator.AppendBatchChunk(old_rows, 500);
    ASSERT_TRUE(chunk.ok());
    table.AppendBatch(chunk->dirty);
    const ViolationReport& got = detector.ApplyAppend(table, old_rows);

    ViolationReport want = DetectWithFds(table, detector.fds());
    ASSERT_EQ(got.suspects.size(), want.suspects.size()) << "batch " << b;
    for (size_t i = 0; i < got.suspects.size(); ++i) {
      const Suspect& g = got.suspects[i];
      const Suspect& w = want.suspects[i];
      EXPECT_EQ(g.row, w.row);
      EXPECT_EQ(g.col, w.col);
      EXPECT_EQ(g.current, w.current);
      EXPECT_EQ(g.suggested, w.suggested);
      EXPECT_EQ(g.fd_index, w.fd_index);
      EXPECT_EQ(g.blame, w.blame);
      EXPECT_DOUBLE_EQ(g.consensus, w.consensus);
    }
  }
}

}  // namespace
}  // namespace falcon
