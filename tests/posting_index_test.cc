#include "relational/posting_index.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/lattice.h"
#include "datagen/datasets.h"

namespace falcon {
namespace {

TEST(PostingIndexTest, PostingsMatchScan) {
  DrugExample ex = MakeDrugExample();
  PostingIndex index(&ex.dirty);
  ValueId austin = ex.dirty.Lookup("Austin");
  const size_t n = ex.dirty.num_rows();
  EXPECT_EQ(index.Postings(2, austin).ToRowSet(n),
            ex.dirty.ScanEquals(2, austin));
  ValueId statin = ex.dirty.Lookup("statin");
  EXPECT_EQ(index.Postings(1, statin).ToRowSet(n),
            ex.dirty.ScanEquals(1, statin));
}

TEST(PostingIndexTest, CachesAcrossCalls) {
  DrugExample ex = MakeDrugExample();
  PostingIndex index(&ex.dirty);
  ValueId austin = ex.dirty.Lookup("Austin");
  index.Postings(2, austin);
  EXPECT_EQ(index.misses(), 1u);
  index.Postings(2, austin);
  index.Postings(2, austin);
  EXPECT_EQ(index.hits(), 2u);
  EXPECT_EQ(index.cached_entries(), 1u);
}

TEST(PostingIndexTest, InvalidationRefreshesAfterUpdate) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  PostingIndex index(&dirty);
  ValueId statin = dirty.Lookup("statin");
  EXPECT_EQ(index.Postings(1, statin).Count(), 3u);

  dirty.SetCellText(1, 1, "C22H28F");  // t2 fixed.
  // Stale until invalidated.
  EXPECT_EQ(index.Postings(1, statin).Count(), 3u);
  index.InvalidateColumn(1);
  EXPECT_EQ(index.Postings(1, statin).Count(), 2u);
}

TEST(PostingIndexTest, InvalidateAllClearsEverything) {
  DrugExample ex = MakeDrugExample();
  PostingIndex index(&ex.dirty);
  index.Postings(1, ex.dirty.Lookup("statin"));
  index.Postings(2, ex.dirty.Lookup("Austin"));
  EXPECT_EQ(index.cached_entries(), 2u);
  index.InvalidateAll();
  EXPECT_EQ(index.cached_entries(), 0u);
}

TEST(PostingIndexTest, LatticeBuiltThroughIndexMatchesDirect) {
  DrugExample ex = MakeDrugExample();
  PostingIndex index(&ex.dirty);
  Repair repair{1, 1, "C22H28F"};
  LatticeOptions with_index;
  with_index.index = &index;
  auto a = Lattice::Build(ex.dirty, repair, {0, 2, 3}, with_index);
  auto b = Lattice::Build(ex.dirty, repair, {0, 2, 3});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (NodeId m = 0; m < a->num_nodes(); ++m) {
    EXPECT_EQ(a->affected(m), b->affected(m)) << "node " << m;
  }
  // Second build over the same repair is served from cache.
  size_t misses_before = index.misses();
  auto c = Lattice::Build(ex.dirty, repair, {0, 2, 3}, with_index);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(index.misses(), misses_before);
}

// Builds a rows×cols table over a small alphabet so values recur heavily.
Table MakeRandomTable(size_t rows, size_t cols, size_t alphabet, Rng* rng) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("A" + std::to_string(c));
  Table t("rand", Schema(names));
  std::vector<std::string> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      row[c] = "v" + std::to_string(rng->NextUint(alphabet));
    }
    t.AppendRow(row);
  }
  return t;
}

// Property: after a randomized sequence of cell writes reported via
// ApplyCellDelta, every cached bitmap equals a fresh ScanEquals, and the
// delta-maintained index agrees with the legacy invalidate-and-rescan one.
TEST(PostingIndexTest, DeltaMaintenanceMatchesFreshScansUnderRandomWrites) {
  Rng rng(4242);
  Table table = MakeRandomTable(257, 4, 6, &rng);
  std::vector<ValueId> alphabet;
  for (size_t a = 0; a < 6; ++a) {
    alphabet.push_back(table.Intern("v" + std::to_string(a)));
  }

  PostingIndexOptions delta_opts;
  delta_opts.delta_maintenance = true;
  PostingIndex delta(&table, delta_opts);
  PostingIndexOptions legacy_opts;
  legacy_opts.delta_maintenance = false;
  PostingIndex legacy(&table, legacy_opts);

  // Warm a subset of entries so deltas hit both cached and uncached values.
  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (size_t a = 0; a < 3; ++a) delta.Postings(c, alphabet[a]);
  }

  for (int step = 0; step < 500; ++step) {
    size_t row = rng.NextUint(table.num_rows());
    size_t col = rng.NextUint(table.num_cols());
    ValueId old_value = table.cell(row, col);
    ValueId new_value = alphabet[rng.NextUint(alphabet.size())];
    delta.ApplyCellDelta(col, row, old_value, new_value);
    table.set_cell(row, col, new_value);
    legacy.InvalidateColumn(col);

    if (step % 25 == 0) {
      size_t c = rng.NextUint(table.num_cols());
      ValueId v = alphabet[rng.NextUint(alphabet.size())];
      EXPECT_EQ(delta.Postings(c, v).ToRowSet(table.num_rows()), table.ScanEquals(c, v))
          << "step " << step;
      EXPECT_EQ(legacy.Postings(c, v).ToRowSet(table.num_rows()), table.ScanEquals(c, v))
          << "step " << step;
    }
  }
  // Final sweep: every (col, value) bitmap must match a fresh scan.
  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (ValueId v : alphabet) {
      EXPECT_EQ(delta.Postings(c, v).ToRowSet(table.num_rows()), table.ScanEquals(c, v));
    }
  }
  EXPECT_GT(delta.stats().delta_rows, 0u);
}

// Property: batch ApplyDelta (the lattice ApplyNode shape — many rows of one
// column rewritten to a single value) keeps cached bitmaps exact.
TEST(PostingIndexTest, BatchApplyDeltaMatchesFreshScans) {
  Rng rng(77);
  Table table = MakeRandomTable(300, 3, 5, &rng);
  std::vector<ValueId> alphabet;
  for (size_t a = 0; a < 5; ++a) {
    alphabet.push_back(table.Intern("v" + std::to_string(a)));
  }
  PostingIndex index(&table);
  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (ValueId v : alphabet) index.Postings(c, v);
  }

  for (int step = 0; step < 40; ++step) {
    // A rule: rows where col_a = u get col_b rewritten to w.
    size_t col_a = rng.NextUint(table.num_cols());
    size_t col_b = rng.NextUint(table.num_cols());
    ValueId u = alphabet[rng.NextUint(alphabet.size())];
    ValueId w = alphabet[rng.NextUint(alphabet.size())];
    RowSet rows = table.ScanEquals(col_a, u);
    index.ApplyDelta(col_b, rows,
                     [&](size_t r) { return table.cell(r, col_b); }, w);
    rows.ForEach([&](size_t r) { table.set_cell(r, col_b, w); });
    for (size_t c = 0; c < table.num_cols(); ++c) {
      for (ValueId v : alphabet) {
        ASSERT_EQ(index.Postings(c, v).ToRowSet(table.num_rows()), table.ScanEquals(c, v))
            << "step " << step << " col " << c;
      }
    }
  }
}

TEST(PostingIndexTest, ByteBudgetEvictsLruEntries) {
  DrugExample ex = MakeDrugExample();
  size_t entry_bytes = ((ex.dirty.num_rows() + 63) / 64) * 8 + 64;
  PostingIndexOptions options;
  options.byte_budget = entry_bytes * 2;  // Room for two entries.
  PostingIndex index(&ex.dirty, options);

  ValueId statin = ex.dirty.Lookup("statin");
  ValueId austin = ex.dirty.Lookup("Austin");
  ValueId q200 = ex.dirty.Lookup("200");
  index.Postings(1, statin);
  index.Postings(2, austin);
  index.Postings(3, q200);  // Three entries, over budget.
  EXPECT_EQ(index.cached_entries(), 3u);
  index.Trim();
  EXPECT_EQ(index.cached_entries(), 2u);
  EXPECT_EQ(index.stats().evictions, 1u);
  // The LRU victim was the statin entry; re-requesting it is a miss while
  // the survivors still hit.
  size_t misses_before = index.misses();
  index.Postings(2, austin);
  index.Postings(3, q200);
  EXPECT_EQ(index.misses(), misses_before);
  index.Postings(1, statin);
  EXPECT_EQ(index.misses(), misses_before + 1);
  // Evicted-and-refilled bitmaps are still exact.
  EXPECT_EQ(index.Postings(1, statin).ToRowSet(ex.dirty.num_rows()),
            ex.dirty.ScanEquals(1, statin));
}

// Array postings are a storage choice, not a semantics change: every
// posting and every delta patch must agree bit for bit with an all-dense
// index over the same write sequence, and StorageStats must report the
// arrays as cheaper than their dense footprint on a sparse
// (large-alphabet) workload.
TEST(PostingIndexTest, CompressedPostingsMatchDenseUnderRandomWrites) {
  Rng rng(9091);
  // An alphabet of 64 keeps each posting sparse (~1/64 density, below the
  // 1/32 line), so almost every posting is an array.
  Table table = MakeRandomTable(20000, 3, 64, &rng);
  std::vector<ValueId> alphabet;
  for (size_t a = 0; a < 64; ++a) {
    alphabet.push_back(table.Intern("v" + std::to_string(a)));
  }

  PostingIndexOptions dense_opts;
  dense_opts.delta_maintenance = true;
  PostingIndex dense(&table, dense_opts);
  PostingIndexOptions comp_opts;
  comp_opts.delta_maintenance = true;
  comp_opts.compressed = true;
  PostingIndex comp(&table, comp_opts);

  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (size_t a = 0; a < alphabet.size(); a += 7) {
      dense.Postings(c, alphabet[a]);
      comp.Postings(c, alphabet[a]);
    }
  }

  for (int step = 0; step < 200; ++step) {
    size_t row = rng.NextUint(table.num_rows());
    size_t col = rng.NextUint(table.num_cols());
    ValueId old_value = table.cell(row, col);
    ValueId new_value = alphabet[rng.NextUint(alphabet.size())];
    dense.ApplyCellDelta(col, row, old_value, new_value);
    comp.ApplyCellDelta(col, row, old_value, new_value);
    table.set_cell(row, col, new_value);
  }

  const size_t n = table.num_rows();
  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (size_t a = 0; a < alphabet.size(); a += 5) {
      RowSet d = dense.Postings(c, alphabet[a]).ToRowSet(n);
      RowSet k = comp.Postings(c, alphabet[a]).ToRowSet(n);
      EXPECT_EQ(d, k) << "col " << c << " value " << a;
      EXPECT_EQ(k, table.ScanEquals(c, alphabet[a]));
    }
  }

  PostingStorageStats ds = dense.StorageStats();
  PostingStorageStats cs = comp.StorageStats();
  ASSERT_GT(cs.entries, 0u);
  EXPECT_EQ(ds.array_postings, 0u);
  // Sparse workload: the array index must be materially smaller than both
  // its own dense footprint and the dense index's resident bytes.
  EXPECT_LT(cs.resident_bytes, cs.dense_bytes);
  EXPECT_LT(cs.resident_bytes, ds.resident_bytes);
  EXPECT_GT(cs.compression(), 2.0);
  EXPECT_GT(cs.array_postings, 0u);
}

// Exact byte accounting: cached_bytes always equals the sum of per-entry
// footprints — payload bytes plus the flat per-entry charge —
// across inserts, single-cell and multi-row delta patches, appends, full
// column builds, invalidation and budget eviction, in both storage modes.
// CleaningSession reports posting_resident_bytes from this identity
// instead of walking the cache.
TEST(PostingIndexTest, ByteAccountingStaysExactUnderDeltas) {
  for (bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "dense");
    Rng rng(515);
    Table table = MakeRandomTable(20000, 2, 32, &rng);
    std::vector<ValueId> alphabet;
    for (size_t a = 0; a < 32; ++a) {
      alphabet.push_back(table.Intern("v" + std::to_string(a)));
    }
    PostingIndexOptions opts;
    opts.delta_maintenance = true;
    opts.compressed = compressed;
    // Only Trim() enforces the budget, so it bites at the end alone.
    opts.byte_budget = 16 << 10;
    PostingIndex index(&table, opts);
    auto expect_exact = [&](const char* after) {
      PostingStorageStats storage = index.StorageStats();
      EXPECT_EQ(storage.entries, index.cached_entries()) << after;
      EXPECT_EQ(index.cached_bytes(),
                storage.resident_bytes +
                    PostingIndex::kEntryOverheadBytes * index.cached_entries())
          << after;
    };
    for (size_t c = 0; c < table.num_cols(); ++c) {
      for (size_t a = 0; a < alphabet.size(); a += 3) {
        index.Postings(c, alphabet[a]);
      }
    }
    expect_exact("probes");

    for (int step = 0; step < 100; ++step) {
      size_t row = rng.NextUint(table.num_rows());
      size_t col = rng.NextUint(table.num_cols());
      ValueId old_value = table.cell(row, col);
      ValueId new_value = alphabet[rng.NextUint(alphabet.size())];
      index.ApplyCellDelta(col, row, old_value, new_value);
      table.set_cell(row, col, new_value);
    }
    expect_exact("ApplyCellDelta");

    for (int step = 0; step < 10; ++step) {
      size_t col = rng.NextUint(table.num_cols());
      ValueId new_value = alphabet[rng.NextUint(alphabet.size())];
      RowSet rows(table.num_rows());
      for (int i = 0; i < 500; ++i) rows.Set(rng.NextUint(table.num_rows()));
      index.ApplyDelta(
          col, rows, [&](size_t r) { return table.cell(r, col); }, new_value);
      rows.ForEach([&](size_t r) { table.set_cell(r, col, new_value); });
    }
    expect_exact("ApplyDelta");

    size_t old_rows = table.num_rows();
    for (int i = 0; i < 3000; ++i) {
      table.AppendRowIds({alphabet[rng.NextUint(alphabet.size())],
                          alphabet[rng.NextUint(alphabet.size())]});
    }
    index.ApplyAppend(old_rows);
    expect_exact("ApplyAppend");

    index.BuildColumn(1);
    expect_exact("BuildColumn");

    index.InvalidateColumn(0);
    expect_exact("InvalidateColumn");

    ASSERT_GT(index.cached_bytes(), opts.byte_budget);
    index.Trim();
    EXPECT_LE(index.cached_bytes(), opts.byte_budget);
    EXPECT_GT(index.stats().evictions, 0u);
    expect_exact("Trim");
  }
}

// A table of `rows` rows whose columns cover both forms a build can emit
// (at 150k rows the dense line is 4,688 rows):
//  0: skewed — one value on ~half the rows and NULL on ~5% (dense), 40
//     sparse values (arrays);
//  1: blocks of 1000 equal rows (arrays) with NULL pockets (dense);
//  2: one value on every other row of the first 8,400 rows (an array),
//     the rest uniform over 20 values (dense);
//  3: a unique key (key-like; a whole build of it would hold one posting
//     per row, so only misses touch it).
Table MakeBuildTable(size_t rows, uint64_t seed) {
  Table t("build", Schema({"skew", "blocks", "chunky", "key"}));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<ValueId> ids(4);
    uint64_t pick = rng.NextUint(100);
    ids[0] = pick < 50   ? t.Intern("hot")
             : pick < 55 ? kNullValueId
                         : t.Intern("s" + std::to_string(rng.NextUint(40)));
    ids[1] = (r / 1000) % 7 == 6
                 ? kNullValueId
                 : t.Intern("b" + std::to_string(r / 1000));
    ids[2] = r < 8400 && r % 2 == 0
                 ? t.Intern("even")
                 : t.Intern("u" + std::to_string(rng.NextUint(20)));
    ids[3] = t.Intern("k" + std::to_string(r));
    t.AppendRowIds(ids);
  }
  return t;
}

std::vector<ValueId> DistinctValues(const Table& t, size_t col) {
  std::set<ValueId> values(t.column(col).begin(), t.column(col).end());
  return {values.begin(), values.end()};
}

// The form and payload a per-value scan of `col` = `v` is stored in.
struct ExpectedPosting {
  RowSet rows;
  bool dense = true;
  size_t bytes = 0;
};

ExpectedPosting Expect(const Table& table, size_t col, ValueId v,
                       bool compressed) {
  ExpectedPosting e;
  e.rows = table.ScanEquals(col, v);
  size_t count = e.rows.Count();
  e.dense = !compressed || Posting::DenseRule(count, table.num_rows());
  e.bytes = e.dense ? e.rows.num_words() * sizeof(uint64_t)
                    : count * sizeof(uint32_t);
  return e;
}

// BuildColumn is a counting sort; the per-value path is a scan. Both must
// store the same thing — contents, form and payload bytes — at every
// thread count.
TEST(PostingIndexTest, BuildColumnEqualsPerValueScansAtEveryThreadCount) {
  Table table = MakeBuildTable(150000, 61);  // Two shards at 4 threads.
  const size_t n = table.num_rows();
  for (bool compressed : {false, true}) {
    PostingIndexOptions opts;
    opts.compressed = compressed;
    for (size_t workers : {size_t{0}, size_t{3}}) {  // 1 and 4 threads.
      SCOPED_TRACE(std::string(compressed ? "compressed" : "dense") +
                   " workers=" + std::to_string(workers));
      ThreadPool pool(workers);
      PostingIndex index(&table, opts);
      size_t want_bytes = 0, want_entries = 0, arrays = 0, dense = 0;
      for (size_t c : {size_t{0}, size_t{1}, size_t{2}}) {
        index.BuildColumn(c, &pool);
        for (ValueId v : DistinctValues(table, c)) {
          ExpectedPosting want = Expect(table, c, v, compressed);
          const Posting& got = index.Postings(c, v);
          ASSERT_EQ(got.ToRowSet(n), want.rows) << c << "/" << v;
          ASSERT_EQ(got.dense(), want.dense) << c << "/" << v;
          ASSERT_EQ(got.PayloadBytes(), want.bytes) << c << "/" << v;
          ++(want.dense ? dense : arrays);
          want_bytes += want.bytes + PostingIndex::kEntryOverheadBytes;
          ++want_entries;
        }
      }
      EXPECT_EQ(index.cached_entries(), want_entries);
      EXPECT_EQ(index.cached_bytes(), want_bytes);
      EXPECT_EQ(index.misses(), 0u);
      // Both forms occur in compressed mode, so the comparison covers both.
      EXPECT_GT(dense, 0u);
      EXPECT_EQ(arrays > 0, compressed);
    }
  }
}

TEST(PostingIndexTest, OneMissMakesEveryValueOfABoundedColumnResident) {
  Table table = MakeBuildTable(20000, 7);
  PostingIndexOptions opts;
  opts.compressed = true;
  PostingIndex index(&table, opts);
  std::vector<ValueId> values = DistinctValues(table, 1);
  ASSERT_LE(values.size(), table.num_rows() / 64);
  index.Postings(1, values.back());
  EXPECT_EQ(index.misses(), 1u);
  EXPECT_EQ(index.cached_entries(), values.size());
  for (ValueId v : values) {
    EXPECT_EQ(index.Postings(1, v).ToRowSet(table.num_rows()), table.ScanEquals(1, v));
  }
  EXPECT_EQ(index.misses(), 1u);
  EXPECT_EQ(index.hits(), values.size());
}

TEST(PostingIndexTest, KeyLikeColumnHoldsOnlyProbedEntries) {
  Table table = MakeBuildTable(20000, 8);
  PostingIndex index(&table);
  for (size_t r : {size_t{3}, size_t{17}, size_t{19999}}) {
    ValueId v = table.cell(r, 3);
    EXPECT_EQ(index.Postings(3, v).ToRowSet(table.num_rows()), table.ScanEquals(3, v));
  }
  EXPECT_EQ(index.misses(), 3u);
  EXPECT_EQ(index.cached_entries(), 3u);
}

// The bounded/key-like line sits at num_rows/64 distinct values.
TEST(PostingIndexTest, WholeColumnBuildStopsAtOneValuePer64Rows) {
  Table table("edge", Schema({"at", "over"}));
  for (size_t r = 0; r < 640; ++r) {
    table.AppendRowIds({table.Intern("a" + std::to_string(r % 10)),
                        table.Intern("o" + std::to_string(r % 11))});
  }
  PostingIndex index(&table);
  index.Postings(0, table.Lookup("a0"));
  EXPECT_EQ(index.cached_entries(), 10u);  // 10 values ≤ 640/64: built.
  index.Postings(1, table.Lookup("o0"));
  EXPECT_EQ(index.cached_entries(), 11u);  // 11 values: key-like.
}

TEST(PostingIndexTest, AbsentValueReturnsEmptySet) {
  Table table = MakeBuildTable(20000, 9);
  ValueId absent = table.Intern("never-stored");
  PostingIndex index(&table);
  for (size_t c : {size_t{1}, size_t{3}}) {  // Bounded, then key-like.
    // First miss (builds column 1) and a miss on a built column.
    for (int probe = 0; probe < 2; ++probe) {
      const Posting& rows = index.Postings(c, absent);
      EXPECT_EQ(rows.Count(), 0u) << c;
      EXPECT_EQ(rows.ToRowSet(table.num_rows()).Count(), 0u) << c;
    }
    ValueId other = table.Intern("also-never-" + std::to_string(c));
    EXPECT_EQ(index.Postings(c, other).Count(), 0u) << c;
  }
}

// Whole-column builds stay exact through every maintenance path: deltas
// (including a value the column never held), appends, Trim eviction and
// the re-miss after it, and invalidation with the rebuild that follows.
TEST(PostingIndexTest, WholeColumnPostingsStayExactUnderMaintenance) {
  for (bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "dense");
    Table table = MakeBuildTable(20000, 10);
    ValueId fresh = table.Intern("fresh");
    PostingIndexOptions opts;
    opts.compressed = compressed;
    opts.byte_budget = 32 << 10;
    PostingIndex index(&table, opts);
    auto expect_exact = [&](const char* after) {
      for (size_t c : {size_t{0}, size_t{1}, size_t{2}}) {
        std::vector<ValueId> values = DistinctValues(table, c);
        values.push_back(fresh);
        for (ValueId v : values) {
          ASSERT_EQ(index.Postings(c, v).ToRowSet(table.num_rows()), table.ScanEquals(c, v))
              << after << " col " << c << " value " << v;
        }
      }
    };
    expect_exact("first misses");
    size_t built_entries = index.cached_entries();

    Rng rng(11);
    for (int step = 0; step < 20; ++step) {
      size_t col = rng.NextUint(3);
      std::vector<ValueId> values = DistinctValues(table, col);
      ValueId new_value = step % 5 == 0
                              ? fresh
                              : values[rng.NextUint(values.size())];
      RowSet rows(table.num_rows());
      for (int i = 0; i < 300; ++i) rows.Set(rng.NextUint(table.num_rows()));
      index.ApplyDelta(
          col, rows, [&](size_t r) { return table.cell(r, col); }, new_value);
      rows.ForEach([&](size_t r) { table.set_cell(r, col, new_value); });
      size_t row = rng.NextUint(table.num_rows());
      ValueId old_value = table.cell(row, col);
      index.ApplyCellDelta(col, row, old_value, values.front());
      table.set_cell(row, col, values.front());
    }
    expect_exact("ApplyDelta");

    size_t old_rows = table.num_rows();
    for (size_t r = 0; r < 3000; ++r) {
      table.AppendRowIds({r % 3 == 0 ? fresh : table.Intern("hot"),
                          table.Intern("b" + std::to_string(r % 4)),
                          table.Intern("appended"), table.Intern("k+")});
    }
    index.ApplyAppend(old_rows);
    expect_exact("ApplyAppend");

    size_t misses = index.misses();
    index.Trim();
    ASSERT_GT(index.stats().evictions, 0u);
    expect_exact("Trim");  // Re-misses are single-value scans...
    EXPECT_LT(index.misses() - misses, built_entries);  // ...not rebuilds.

    index.InvalidateColumn(1);
    size_t before = index.cached_entries();
    index.Postings(1, table.cell(0, 1));  // Rebuilds the whole column.
    EXPECT_EQ(index.cached_entries(),
              before + DistinctValues(table, 1).size());
    expect_exact("InvalidateColumn");
  }
}

// Property: random sequences of every maintenance operation — ApplyDelta,
// ApplyCellDelta, ApplyAppend, Trim, InvalidateColumn, plus probes that
// refill what was dropped — keep a maintained index equal to a fresh build
// in both storage modes. After each step every cached entry holds exactly
// a fresh scan's rows in the form the rule picks for them, and
// cached_bytes() is the sum of those fresh entries' bytes. The columns
// straddle the dense line (1/32 of the rows) so deltas and appends flip
// postings between the forms.
TEST(PostingIndexTest, RandomMaintenanceEqualsFreshBuildInBothModes) {
  for (bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "dense");
    Rng rng(compressed ? 8181 : 8180);
    // Alphabet per column: 4 (dense values), 32 (near the line), 40 (just
    // under it) and 400 (key-like: more than rows/64 distinct values).
    const size_t kAlphabet[] = {4, 32, 40, 400};
    Table table("prop", Schema({"c0", "c1", "c2", "c3"}));
    auto draw = [&](size_t c) {
      return table.Intern("v" + std::to_string(c) + "_" +
                          std::to_string(rng.NextUint(kAlphabet[c])));
    };
    auto append_rows = [&](size_t count) {
      for (size_t i = 0; i < count; ++i) {
        table.AppendRowIds({draw(0), draw(1), draw(2), draw(3)});
      }
    };
    append_rows(3000);
    PostingIndexOptions opts;
    opts.compressed = compressed;
    opts.byte_budget = 24 << 10;
    PostingIndex index(&table, opts);

    auto check = [&](int step, const char* op) {
      size_t entries = 0, bytes = 0;
      index.ForEachEntry([&](size_t c, ValueId v, const Posting& p) {
        ExpectedPosting want = Expect(table, c, v, compressed);
        ASSERT_EQ(p.ToRowSet(table.num_rows()), want.rows)
            << op << " step " << step << " col " << c;
        ASSERT_EQ(p.Count(), want.rows.Count()) << op << " step " << step;
        ASSERT_EQ(p.dense(), want.dense) << op << " step " << step;
        ASSERT_EQ(p.PayloadBytes(), want.bytes) << op << " step " << step;
        ++entries;
        bytes += want.bytes + PostingIndex::kEntryOverheadBytes;
      });
      ASSERT_EQ(entries, index.cached_entries()) << op << " step " << step;
      ASSERT_EQ(bytes, index.cached_bytes()) << op << " step " << step;
    };

    size_t forms_flipped = 0;
    std::map<std::pair<size_t, ValueId>, bool> last_forms;
    for (int step = 0; step < 300; ++step) {
      size_t col = rng.NextUint(table.num_cols());
      const char* op = "";
      switch (rng.NextUint(8)) {
        case 0:
        case 1: {  // A rule: ~1% of rows of one column rewritten.
          op = "ApplyDelta";
          ValueId w = draw(col);
          RowSet rows(table.num_rows());
          size_t k = 1 + rng.NextUint(table.num_rows() / 50);
          for (size_t i = 0; i < k; ++i) {
            rows.Set(rng.NextUint(table.num_rows()));
          }
          index.ApplyDelta(col, rows,
                           [&](size_t r) { return table.cell(r, col); }, w);
          rows.ForEach([&](size_t r) { table.set_cell(r, col, w); });
          break;
        }
        case 2: {
          op = "ApplyCellDelta";
          size_t row = rng.NextUint(table.num_rows());
          ValueId w = draw(col);
          index.ApplyCellDelta(col, row, table.cell(row, col), w);
          table.set_cell(row, col, w);
          break;
        }
        case 3: {
          op = "ApplyAppend";
          size_t old_rows = table.num_rows();
          append_rows(1 + rng.NextUint(200));
          index.ApplyAppend(old_rows);
          break;
        }
        case 4:
          op = "Trim";
          index.Trim();
          break;
        case 5:
          op = "InvalidateColumn";
          index.InvalidateColumn(col);
          break;
        default:  // Probe: a hit, or a refilling miss.
          op = "Postings";
          index.Postings(col, draw(col));
          break;
      }
      check(step, op);
      if (HasFatalFailure()) return;
      std::map<std::pair<size_t, ValueId>, bool> forms;
      index.ForEachEntry([&](size_t c, ValueId v, const Posting& p) {
        auto it = last_forms.find({c, v});
        forms_flipped += it != last_forms.end() && it->second != p.dense();
        forms[{c, v}] = p.dense();
      });
      last_forms = std::move(forms);
    }
    EXPECT_GT(index.stats().evictions, 0u);
    EXPECT_GT(index.stats().delta_rows, 0u);
    EXPECT_GT(index.stats().append_rows, 0u);
    if (compressed) {
      PostingStorageStats st = index.StorageStats();
      EXPECT_GT(st.array_postings, 0u);
      EXPECT_GT(forms_flipped, 0u);
    }
  }
}

}  // namespace
}  // namespace falcon
