#include "core/lattice.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

// Lattice for the paper's update Δ3: t2[Molecule] ← "C22H28F" over the
// dirty T_drug, with all four attributes (Fig. 2). Lattice bit order:
// 0=Molecule (target), 1=Date, 2=Laboratory, 3=Quantity.
StatusOr<Lattice> DrugLattice(const Table& dirty,
                              LatticeOptions options = {}) {
  Repair repair{/*row=*/1, /*col=*/1, "C22H28F"};
  return Lattice::Build(dirty, repair, {0, 2, 3}, options);
}

NodeId MaskOf(const Lattice& lat, std::initializer_list<const char*> attrs) {
  NodeId m = 0;
  for (const char* a : attrs) {
    bool found = false;
    for (size_t i = 0; i < lat.num_attrs(); ++i) {
      if (lat.attr_name(i) == a) {
        m |= NodeId{1} << i;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no lattice attribute " << a;
  }
  return m;
}

TEST(LatticeTest, BuildShape) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok()) << lat.status();
  EXPECT_EQ(lat->num_attrs(), 4u);
  EXPECT_EQ(lat->num_nodes(), 16u);
  EXPECT_EQ(lat->bottom(), 0u);
  EXPECT_EQ(lat->top(), 15u);
  // Ranked candidates first, the repaired attribute last.
  EXPECT_EQ(lat->attr_name(0), "Date");
  EXPECT_EQ(lat->attr_name(3), "Molecule");
  EXPECT_EQ(lat->binding_text(3), "statin");  // Bound to the dirty value.
}

TEST(LatticeTest, AffectedCountsMatchPaperFigure2) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  // ∅ affects every tuple whose Molecule ≠ C22H28F: all 6.
  EXPECT_EQ(lat->affected_count(lat->bottom()), 6u);
  // M (Molecule=statin): t2, t4, t5.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Molecule"})), 3u);
  // ML (the paper's Q3): t2, t5 — affected number 2 in Fig. 2.
  NodeId ml = MaskOf(*lat, {"Molecule", "Laboratory"});
  EXPECT_EQ(lat->affected_count(ml), 2u);
  EXPECT_EQ(lat->affected(ml).ToVector(), (std::vector<uint32_t>{1, 4}));
  // Q (Quantity=200): t1, t2, t4, t5.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Quantity"})), 4u);
  // LQ (Austin, 200): t1, t2, t5.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Laboratory", "Quantity"})),
            3u);
  // Top (DMLQ): only t2.
  EXPECT_EQ(lat->affected_count(lat->top()), 1u);
}

TEST(LatticeTest, NaiveInitMatchesViewInit) {
  DrugExample ex = MakeDrugExample();
  auto fast = DrugLattice(ex.dirty);
  LatticeOptions naive;
  naive.naive_init = true;
  auto slow = DrugLattice(ex.dirty, naive);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  for (NodeId m = 0; m < fast->num_nodes(); ++m) {
    EXPECT_EQ(fast->affected(m), slow->affected(m)) << "node " << m;
  }
}

TEST(LatticeTest, NodeQueryRendersSql) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  SqluQuery q = lat->NodeQuery(MaskOf(*lat, {"Molecule", "Laboratory"}));
  EXPECT_EQ(q.ToSql(),
            "UPDATE T_drug SET Molecule = 'C22H28F' WHERE Laboratory = "
            "'Austin' AND Molecule = 'statin';");
  EXPECT_EQ(lat->NodeQuery(0).ToSql(),
            "UPDATE T_drug SET Molecule = 'C22H28F';");
}

TEST(LatticeTest, NodeLabel) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat->NodeLabel(0), "{}");
  EXPECT_EQ(lat->NodeLabel(MaskOf(*lat, {"Molecule", "Quantity"})),
            "{Quantity, Molecule}");
}

TEST(LatticeTest, ValidInferencePropagatesUpward) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  NodeId ml = MaskOf(*lat, {"Molecule", "Laboratory"});
  lat->MarkValid(ml);
  // Everything more specific (supersets) becomes valid.
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    if ((m & ml) == ml) {
      EXPECT_EQ(lat->validity(m), Validity::kValid) << "node " << m;
    } else {
      EXPECT_EQ(lat->validity(m), Validity::kUnknown) << "node " << m;
    }
  }
}

TEST(LatticeTest, InvalidInferencePropagatesDownward) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  NodeId dq = MaskOf(*lat, {"Date", "Quantity"});
  lat->MarkInvalid(dq);
  // Paper Example 5: D, Q and ∅ become invalid.
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    if ((m & dq) == m) {
      EXPECT_EQ(lat->validity(m), Validity::kInvalid) << "node " << m;
    } else {
      EXPECT_EQ(lat->validity(m), Validity::kUnknown) << "node " << m;
    }
  }
}

TEST(LatticeTest, InferenceDoesNotOverwriteKnownStates) {
  DrugExample ex = MakeDrugExample();
  auto lat = DrugLattice(ex.dirty);
  ASSERT_TRUE(lat.ok());
  NodeId ml = MaskOf(*lat, {"Molecule", "Laboratory"});
  lat->MarkValid(ml);
  lat->MarkInvalid(MaskOf(*lat, {"Molecule"}));
  // ML stays valid even though it is a superset of the invalidated M.
  EXPECT_EQ(lat->validity(ml), Validity::kValid);
}

TEST(LatticeTest, ApplyNodeWritesAndMaintainsCounts) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  auto lat = DrugLattice(dirty);
  ASSERT_TRUE(lat.ok());

  // Paper Example 9: validating ML repairs {t2, t5}.
  NodeId ml = MaskOf(*lat, {"Molecule", "Laboratory"});
  RowSet changed = lat->ApplyNode(ml, dirty);
  EXPECT_EQ(changed.ToVector(), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(dirty.CellText(1, 1), "C22H28F");
  EXPECT_EQ(dirty.CellText(4, 1), "C22H28F");

  // Case 1: contained nodes (supersets of ML) drop to 0.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Molecule", "Laboratory",
                                              "Date"})), 0u);
  EXPECT_EQ(lat->affected_count(lat->top()), 0u);
  // Case 2: M drops 3 → 1; ∅ drops 6 → 4.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Molecule"})), 1u);
  EXPECT_EQ(lat->affected_count(lat->bottom()), 4u);
  // L (Laboratory=Austin): was {t1, t2, t5} = 3, loses t2 and t5 → 1.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Laboratory"})), 1u);
  // Case 3: DL (12 Nov, Austin) affected only t2 → 0 now.
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Date", "Laboratory"})), 0u);
}

TEST(LatticeTest, MaintenanceClassifiesCases) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  auto lat = DrugLattice(dirty);
  ASSERT_TRUE(lat.ok());
  NodeId ml = MaskOf(*lat, {"Molecule", "Laboratory"});
  lat->ApplyNode(ml, dirty);
  // 16-node lattice: ML itself, 3 proper supersets (Case 1), 3 proper
  // subsets {∅, M, L} (Case 2), and 9 incomparable nodes (Case 3).
  EXPECT_EQ(lat->maintenance_stats().case1_contained, 3u);
  EXPECT_EQ(lat->maintenance_stats().case2_containing, 3u);
  EXPECT_EQ(lat->maintenance_stats().case3_disjoint, 9u);
}

TEST(LatticeTest, MaintenanceMatchesRecompute) {
  // Property: after any apply, the incrementally maintained sets equal a
  // from-scratch recomputation.
  auto ds = MakeSynth(1500);
  ASSERT_TRUE(ds.ok());
  auto dirty_inst = InjectErrors(ds->clean, ds->error_spec);
  ASSERT_TRUE(dirty_inst.ok());
  Table dirty = dirty_inst->dirty.Clone();

  const ErrorCell& e = dirty_inst->errors.front();
  Repair repair{e.row, e.col,
                std::string(ds->clean.pool()->Get(e.clean_value))};
  std::vector<size_t> cols;
  for (size_t c = 0; c < dirty.num_cols() && cols.size() < 5; ++c) {
    if (c != e.col) cols.push_back(c);
  }
  auto lat = Lattice::Build(dirty, repair, cols);
  ASSERT_TRUE(lat.ok());

  // Apply a mid-lattice node, then compare the incrementally maintained
  // sets against a from-scratch recomputation over the updated table
  // (RecomputeAffected keeps the original predicate bindings; a rebuilt
  // lattice would re-bind to the repaired tuple's new values).
  Lattice reference = *lat;
  NodeId node = lat->top() >> 1;  // Some strict subset.
  lat->ApplyNode(node, dirty);
  reference.RecomputeAffected(dirty);

  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    EXPECT_EQ(lat->affected(m), reference.affected(m)) << "node " << m;
    EXPECT_EQ(lat->affected_count(m), reference.affected_count(m));
  }
}

// Maintenance at a size whose node sets used to be stored compressed
// (over 64Ki rows). Column 0 is the repaired attribute T; repairing row
// kRepairRow to "new" binds A1..A4 to "x", "y", "g", "g", so applying
// {A1} changes rows inside one word, {A2} rows on both sides of a word
// boundary, and {A3} rows in every word. A fifth of T is already "new".
constexpr size_t kMaintRows = (size_t{1} << 16) + 4464;  // 70,000 rows.
constexpr uint32_t kRepairRow = 64;

Table MaintenanceTable(uint64_t seed) {
  Rng rng(seed);
  Table t("T_maint", Schema({"T", "A1", "A2", "A3", "A4"}));
  std::vector<ValueId> v;
  for (const char* s : {"old", "new", "x", "y", "g", "h", "p", "q"}) {
    v.push_back(t.Intern(s));
  }
  const ValueId kOld = v[0], kNew = v[1], kX = v[2], kY = v[3], kG = v[4],
                kH = v[5];
  auto noise = [&] { return v[6 + rng.NextUint(2)]; };
  std::vector<std::vector<ValueId>> chunk(5);
  for (size_t r = 0; r < kMaintRows; ++r) {
    bool repaired = r != kRepairRow && rng.NextBool(0.2);
    chunk[0].push_back(repaired ? kNew : kOld);
    chunk[1].push_back(r >= 64 && r < 128 ? kX : noise());
    chunk[2].push_back(r >= 32 && r < 96 ? kY : noise());
    chunk[3].push_back(r % 3 == 1 ? kG : noise());
    chunk[4].push_back(r == kRepairRow || rng.NextBool(0.5) ? kG : kH);
  }
  t.AppendBatch(chunk);
  return t;
}

// Nonzero words of `rows`, ascending.
std::vector<size_t> NonzeroWords(const RowSet& rows) {
  std::vector<size_t> out;
  for (size_t w = 0; w < rows.num_words(); ++w) {
    if (rows.word(w) != 0) out.push_back(w);
  }
  return out;
}

// Every resident bitmap of `lat` equals `ref`'s, and so does every count
// (read on a copy, so `lat` keeps its state: counted or not, partly
// materialized).
void ExpectMatchesReference(const Lattice& lat, const Lattice& ref) {
  for (NodeId m = 0; m < lat.num_nodes(); ++m) {
    if (lat.materialized(m)) {
      ASSERT_EQ(lat.affected(m), ref.affected(m)) << "node " << m;
    }
  }
  Lattice probe = lat;
  for (NodeId m = 0; m < lat.num_nodes(); ++m) {
    ASSERT_EQ(probe.Count(m), ref.Count(m)) << "node " << m;
  }
}

TEST(LatticeTest, WordRestrictedMaintenanceMatchesFreshBuild) {
  const NodeId kOneWord = 1, kBoundary = 2, kAllWords = 4;  // A1, A2, A3.
  const std::vector<size_t> cols = {1, 2, 3, 4};
  const Repair repair{kRepairRow, 0, "new"};
  // Without the target attribute every binding survives the applies, so a
  // fresh eager Build over the updated table is the reference. With it,
  // T's binding changes once row kRepairRow is repaired, so the reference
  // is an eager lattice recomputed from scratch under the original
  // bindings — this leg also covers the predicate bitmap over T.
  for (bool with_target : {false, true}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE("with_target " + std::to_string(with_target) + " seed " +
                   std::to_string(seed));
      Table table = MaintenanceTable(seed);
      LatticeOptions options;
      options.exclude_target_attr = !with_target;
      LatticeOptions eager = options;
      eager.lazy = false;
      auto lat = Lattice::Build(table, repair, cols, options);
      auto recomputed = Lattice::Build(table, repair, cols, eager);
      ASSERT_TRUE(lat.ok() && recomputed.ok());
      Rng rng(100 + seed);
      // Partial materialization: some bitmaps, and (from the first Count
      // on) every count.
      auto touch_some = [&] {
        for (int i = 0; i < 5; ++i) {
          NodeId m = static_cast<NodeId>(rng.NextUint(lat->num_nodes()));
          if (rng.NextBool(0.5)) {
            lat->AffectedRows(m);
          } else {
            lat->Count(m);
          }
        }
      };
      touch_some();
      const NodeId first = std::vector<NodeId>{kOneWord, kBoundary,
                                               kAllWords}[seed % 3];
      std::vector<NodeId> sequence = {first};
      for (int i = 0; i < 3; ++i) {
        sequence.push_back(
            static_cast<NodeId>(rng.NextUint(lat->num_nodes())));
      }
      for (size_t step = 0; step < sequence.size(); ++step) {
        NodeId n = sequence[step];
        RowSet changed = lat->ApplyNode(n, table);
        if (step == 0) {
          std::vector<size_t> words = NonzeroWords(changed);
          if (n == kOneWord) {
            EXPECT_EQ(words, (std::vector<size_t>{1}));
          } else if (n == kBoundary) {
            EXPECT_EQ(words, (std::vector<size_t>{0, 1}));
          } else {
            EXPECT_EQ(words.size(), changed.num_words());
          }
        }
        if (with_target) {
          recomputed->RecomputeAffected(table);
          ExpectMatchesReference(*lat, *recomputed);
        } else {
          auto fresh = Lattice::Build(table, repair, cols, eager);
          ASSERT_TRUE(fresh.ok());
          ExpectMatchesReference(*lat, *fresh);
        }
        if (HasFatalFailure()) return;
        touch_some();
      }
    }
  }
}

TEST(LatticeTest, RecomputeAffectedRefreshesFromTable) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  auto lat = DrugLattice(dirty);
  ASSERT_TRUE(lat.ok());
  // Mutate the table behind the lattice's back, then recompute.
  dirty.SetCellText(3, 1, "C22H28F");  // Fix t4 by hand.
  lat->RecomputeAffected(dirty);
  EXPECT_EQ(lat->affected_count(MaskOf(*lat, {"Molecule"})), 2u);
}

TEST(LatticeTest, PartialMaterializationCapsAttrs) {
  DrugExample ex = MakeDrugExample();
  LatticeOptions options;
  options.max_attrs = 2;
  auto lat = DrugLattice(ex.dirty, options);
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat->num_attrs(), 2u);
  EXPECT_EQ(lat->num_nodes(), 4u);
  // One slot for the best-ranked candidate, and the target always last.
  EXPECT_EQ(lat->attr_name(0), "Date");
  EXPECT_EQ(lat->attr_name(1), "Molecule");
}

TEST(LatticeTest, ExcludeTargetAttrVariant) {
  DrugExample ex = MakeDrugExample();
  LatticeOptions options;
  options.exclude_target_attr = true;
  auto lat = DrugLattice(ex.dirty, options);
  ASSERT_TRUE(lat.ok());
  // Appendix B: A ∉ X, so only Date, Laboratory, Quantity remain.
  EXPECT_EQ(lat->num_attrs(), 3u);
  for (size_t i = 0; i < lat->num_attrs(); ++i) {
    EXPECT_NE(lat->attr_name(i), "Molecule");
  }
}

// Two-row table with `arity` columns C0..C{arity-1}; row 0 is all "a",
// row 1 all "b". Repairing (0, 0) to "fixed" gives top-node affected {0}.
Table WideTable(size_t arity) {
  std::vector<std::string> attrs;
  for (size_t c = 0; c < arity; ++c) attrs.push_back("C" + std::to_string(c));
  Table t("T_wide", Schema(attrs));
  t.AppendRow(std::vector<std::string>(arity, "a"));
  t.AppendRow(std::vector<std::string>(arity, "b"));
  return t;
}

TEST(LatticeTest, BuildsAtMaxAttrsBoundary) {
  // Exactly kMaxLatticeAttrs attributes (target included) must build — and,
  // lazily, a 2^20-node lattice is cheap: only the bottom is resident.
  Table wide = WideTable(kMaxLatticeAttrs + 2);
  std::vector<size_t> cols;
  for (size_t c = 1; c < kMaxLatticeAttrs; ++c) cols.push_back(c);
  LatticeOptions options;
  options.max_attrs = kMaxLatticeAttrs;
  auto lat = Lattice::Build(wide, Repair{0, 0, "fixed"}, cols, options);
  ASSERT_TRUE(lat.ok()) << lat.status();
  EXPECT_EQ(lat->num_attrs(), kMaxLatticeAttrs);
  EXPECT_EQ(lat->num_nodes(), NodeId{1} << kMaxLatticeAttrs);
  EXPECT_EQ(lat->lazy_stats().nodes_materialized, 1u);
  // Counting the top counts all 2^20 nodes in one kernel pass and builds
  // no node bitmap.
  EXPECT_EQ(lat->affected_count(lat->top()), 1u);
  EXPECT_EQ(lat->affected_count(lat->bottom()), 2u);
  EXPECT_EQ(lat->lazy_stats().nodes_materialized, 1u);
}

TEST(LatticeTest, RejectsBuildJustBeyondMaxAttrs) {
  // One more attribute must be refused with a message naming the cap.
  Table wide = WideTable(kMaxLatticeAttrs + 2);
  std::vector<size_t> cols;
  for (size_t c = 1; c <= kMaxLatticeAttrs; ++c) cols.push_back(c);
  LatticeOptions options;
  options.max_attrs = kMaxLatticeAttrs + 1;
  auto lat = Lattice::Build(wide, Repair{0, 0, "fixed"}, cols, options);
  ASSERT_FALSE(lat.ok());
  EXPECT_NE(lat.status().message().find("kMaxLatticeAttrs = 20"),
            std::string::npos)
      << lat.status();
}

// A 2,000-row table whose lattice over t0 borrows dense postings: column
// "wide" binds a value on every other row, "narrow" one on 1 row in 100
// (an array posting, scattered into an owned bitmap), and the repaired
// column "tgt" stays owned.
Table BorrowTable() {
  Table t("borrow", Schema({"wide", "narrow", "tgt"}));
  for (size_t r = 0; r < 2000; ++r) {
    t.AppendRow({r % 2 == 0 ? "w0" : "w1",
                 r % 100 == 0 ? "n0" : "n" + std::to_string(1 + r % 7),
                 r % 3 == 0 ? "a" : "b"});
  }
  return t;
}

// A copy re-points its owned predicates: applying a node on the original
// (which rewrites its owned predicate over the repaired column) leaves the
// copy's counts as they were.
TEST(LatticeTest, CopyOwnsItsPredicatesAndSharesBorrowedOnes) {
  Table table = BorrowTable();
  PostingIndexOptions index_options;
  index_options.compressed = true;
  PostingIndex index(&table, index_options);
  LatticeOptions options;
  options.index = &index;
  Repair repair{/*row=*/0, /*col=*/2, "b"};
  auto lat = Lattice::Build(table, repair, {0, 1}, options);
  ASSERT_TRUE(lat.ok());
  ASSERT_EQ(lat->num_attrs(), 3u);
  EXPECT_TRUE(lat->pred_borrowed(0));   // wide = w0: 1,000 rows, dense.
  EXPECT_FALSE(lat->pred_borrowed(1));  // narrow = n0: 20 rows, an array.
  EXPECT_FALSE(lat->pred_borrowed(2));  // The repaired column.

  Lattice copy = *lat;
  std::vector<size_t> before;
  for (NodeId m = 0; m < copy.num_nodes(); ++m) {
    before.push_back(Lattice(copy).Count(m));
  }
  lat->ApplyNode(lat->bottom(), table);
  for (NodeId m = 0; m < copy.num_nodes(); ++m) {
    EXPECT_EQ(copy.Count(m), before[m]) << "node " << m;
  }
  // The applied original recounts the written table exactly.
  auto reference = Lattice::Build(table, repair, {0, 1});
  ASSERT_TRUE(reference.ok());
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    EXPECT_EQ(lat->Count(m), reference->Count(m)) << "node " << m;
  }
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
// Writing a borrowed column while the lattice is in use breaks the
// borrowing contract; debug builds catch it at the next read.
TEST(LatticeDeathTest, WritingABorrowedColumnTripsTheCheck) {
  Table table = BorrowTable();
  PostingIndexOptions index_options;
  index_options.compressed = true;
  PostingIndex index(&table, index_options);
  LatticeOptions options;
  options.index = &index;
  auto lat = Lattice::Build(table, Repair{0, 2, "b"}, {0, 1}, options);
  ASSERT_TRUE(lat.ok());
  ASSERT_TRUE(lat->pred_borrowed(0));
  table.SetCellText(5, 0, "w0");
  EXPECT_DEATH(lat->Count(0), "column_writes");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

TEST(LatticeTest, RejectsBadRepairs) {
  DrugExample ex = MakeDrugExample();
  EXPECT_FALSE(
      Lattice::Build(ex.dirty, Repair{99, 1, "x"}, {0}).ok());
  EXPECT_FALSE(
      Lattice::Build(ex.dirty, Repair{1, 99, "x"}, {0}).ok());
  EXPECT_FALSE(
      Lattice::Build(ex.dirty, Repair{1, 1, "x"}, {77}).ok());
}

}  // namespace
}  // namespace falcon
