#include "relational/posting_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/lattice.h"
#include "datagen/datasets.h"

namespace falcon {
namespace {

TEST(PostingIndexTest, PostingsMatchScan) {
  DrugExample ex = MakeDrugExample();
  PostingIndex index(&ex.dirty);
  ValueId austin = ex.dirty.Lookup("Austin");
  EXPECT_EQ(index.Postings(2, austin).ToDense(),
            ex.dirty.ScanEquals(2, austin));
  ValueId statin = ex.dirty.Lookup("statin");
  EXPECT_EQ(index.Postings(1, statin).ToDense(),
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
      EXPECT_EQ(delta.Postings(c, v).ToDense(), table.ScanEquals(c, v))
          << "step " << step;
      EXPECT_EQ(legacy.Postings(c, v).ToDense(), table.ScanEquals(c, v))
          << "step " << step;
    }
  }
  // Final sweep: every (col, value) bitmap must match a fresh scan.
  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (ValueId v : alphabet) {
      EXPECT_EQ(delta.Postings(c, v).ToDense(), table.ScanEquals(c, v));
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
        ASSERT_EQ(index.Postings(c, v).ToDense(), table.ScanEquals(c, v))
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
  EXPECT_EQ(index.Postings(1, statin).ToDense(),
            ex.dirty.ScanEquals(1, statin));
}

// Compressed postings are an encoding choice, not a semantics change:
// every bitmap and every delta patch must agree bit-for-bit with a dense
// index over the same write sequence, and StorageStats must report the
// compressed entries as cheaper than their dense footprint on a sparse
// (large-alphabet) workload.
TEST(PostingIndexTest, CompressedPostingsMatchDenseUnderRandomWrites) {
  Rng rng(9091);
  // Universe above kMinCompressUniverse so Compact actually compresses;
  // alphabet of 64 keeps each posting sparse (~1/64 density).
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

  for (size_t c = 0; c < table.num_cols(); ++c) {
    for (size_t a = 0; a < alphabet.size(); a += 5) {
      RowSet d = dense.Postings(c, alphabet[a]).ToDense();
      RowSet k = comp.Postings(c, alphabet[a]).ToDense();
      EXPECT_EQ(d, k) << "col " << c << " value " << a;
      EXPECT_EQ(k, table.ScanEquals(c, alphabet[a]));
    }
  }

  PostingStorageStats ds = dense.StorageStats();
  PostingStorageStats cs = comp.StorageStats();
  ASSERT_GT(cs.entries, 0u);
  // Sparse workload: the compressed index must be materially smaller than
  // both its own dense footprint and the dense index's resident bytes.
  EXPECT_LT(cs.resident_bytes, cs.dense_bytes);
  EXPECT_LT(cs.resident_bytes, ds.resident_bytes);
  EXPECT_GT(cs.compression(), 2.0);
  EXPECT_GT(cs.array_containers + cs.run_containers, 0u);
}

// Exact byte accounting: cached_bytes always equals the sum of per-entry
// footprints — measured bitmap heap bytes plus the flat per-entry charge —
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

}  // namespace
}  // namespace falcon
