#include "core/repair_log.h"

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/search.h"
#include "core/session.h"
#include "errorgen/injector.h"
#include "datagen/datasets.h"

namespace falcon {
namespace {

SqluQuery DummyQuery(const std::string& value) {
  SqluQuery q;
  q.table = "T";
  q.set_attr = "Molecule";
  q.set_value = value;
  return q;
}

TEST(RepairLogTest, RecordsAndCounts) {
  RepairLog log;
  EXPECT_TRUE(log.empty());
  log.Record(DummyQuery("x"), 1, {{3, 7}, {5, 9}});
  log.Record(DummyQuery("y"), 1, {{3, 8}}, /*manual=*/true);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.cells_written(), 3u);
  EXPECT_EQ(log.TimesRepaired(3, 1), 2u);  // Cycle signal: repaired twice.
  EXPECT_EQ(log.TimesRepaired(5, 1), 1u);
  EXPECT_EQ(log.TimesRepaired(5, 2), 0u);
  EXPECT_TRUE(log.entries()[1].manual);
}

TEST(RepairLogTest, UndoRestoresBeforeImages) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  RepairLog log;

  // Apply Q3 manually while journaling.
  SqluQuery q3 = DummyQuery("C22H28F");
  q3.where = {{"Molecule", "statin"}, {"Laboratory", "Austin"}};
  std::vector<std::pair<uint32_t, ValueId>> before = {
      {1, dirty.cell(1, 1)}, {4, dirty.cell(4, 1)}};
  log.Record(q3, 1, before);
  ASSERT_TRUE(ApplyQuery(dirty, q3).ok());
  EXPECT_EQ(dirty.CellText(1, 1), "C22H28F");

  EXPECT_TRUE(log.UndoLast(dirty));
  EXPECT_EQ(dirty.CellText(1, 1), "statin");
  EXPECT_EQ(dirty.CellText(4, 1), "statin");
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.TimesRepaired(1, 1), 0u);
  EXPECT_FALSE(log.UndoLast(dirty));  // Nothing left.
}

TEST(RepairLogTest, UndoOutOfOrderIsRefusedOnOverlap) {
  // Two rules rewrote the same cell: retracting the older one first would
  // resurrect a value the newer rule already replaced.
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  RepairLog log;

  ValueId statin = dirty.cell(1, 1);
  SqluQuery q1 = DummyQuery("C22H28F");
  log.Record(q1, 1, {{1, statin}, {4, dirty.cell(4, 1)}});
  dirty.set_cell(1, 1, dirty.Intern("C22H28F"));
  dirty.set_cell(4, 1, dirty.Intern("C22H28F"));

  SqluQuery q2 = DummyQuery("C9H8O4");
  log.Record(q2, 1, {{1, dirty.cell(1, 1)}});
  dirty.set_cell(1, 1, dirty.Intern("C9H8O4"));

  Status st = log.Undo(0, dirty);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("newest-first"), std::string::npos)
      << st.message();
  EXPECT_EQ(log.size(), 2u);                    // Nothing was changed.
  EXPECT_EQ(dirty.CellText(1, 1), "C9H8O4");

  // Newest-first succeeds and restores the original values.
  ASSERT_TRUE(log.Undo(1, dirty).ok());
  ASSERT_TRUE(log.Undo(0, dirty).ok());
  EXPECT_EQ(dirty.CellText(1, 1), "statin");
  EXPECT_EQ(dirty.CellText(4, 1), "statin");
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.TimesRepaired(1, 1), 0u);
}

TEST(RepairLogTest, UndoMiddleEntryAllowedWhenDisjoint) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  RepairLog log;

  // Entry 0 touches column 1; entry 1 touches column 2 and a different
  // row of column 1 — no overlap, so the older entry can go first.
  log.Record(DummyQuery("C22H28F"), 1, {{1, dirty.cell(1, 1)}});
  dirty.set_cell(1, 1, dirty.Intern("C22H28F"));
  log.Record(DummyQuery("x"), 1, {{4, dirty.cell(4, 1)}});
  dirty.set_cell(4, 1, dirty.Intern("x"));

  ASSERT_TRUE(log.Undo(0, dirty).ok());
  EXPECT_EQ(dirty.CellText(1, 1), "statin");
  EXPECT_EQ(dirty.CellText(4, 1), "x");  // Later entry untouched.
  ASSERT_EQ(log.size(), 1u);
  ASSERT_TRUE(log.Undo(0, dirty).ok());
  EXPECT_EQ(dirty.CellText(4, 1), "statin");

  EXPECT_EQ(log.Undo(5, dirty).code(), StatusCode::kInvalidArgument);
}

TEST(RepairLogTest, UndoKeepsPostingBitmapsExact) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  PostingIndex index(&dirty);

  ValueId statin = dirty.Intern("statin");
  ValueId fixed = dirty.Intern("C22H28F");
  // Prime the cache so there are bitmaps to maintain.
  (void)index.Postings(1, statin);
  (void)index.Postings(1, fixed);

  RepairLog log;
  log.Record(DummyQuery("C22H28F"), 1,
             {{1, dirty.cell(1, 1)}, {4, dirty.cell(4, 1)}});
  index.ApplyCellDelta(1, 1, dirty.cell(1, 1), fixed);
  index.ApplyCellDelta(1, 4, dirty.cell(4, 1), fixed);
  dirty.set_cell(1, 1, fixed);
  dirty.set_cell(4, 1, fixed);

  ASSERT_TRUE(log.Undo(0, dirty, &index).ok());

  // The maintained bitmaps must match a fresh scan of the rolled-back
  // table.
  PostingIndex fresh(&dirty);
  const size_t n = dirty.num_rows();
  EXPECT_EQ(index.Postings(1, statin).ToRowSet(n),
            fresh.Postings(1, statin).ToRowSet(n));
  EXPECT_EQ(index.Postings(1, fixed).ToRowSet(n),
            fresh.Postings(1, fixed).ToRowSet(n));
}

TEST(RepairLogTest, ToSqlScriptListsEntries) {
  RepairLog log;
  log.Record(DummyQuery("a"), 1, {{0, 1}});
  log.Record(DummyQuery("b"), 1, {{1, 2}}, /*manual=*/true);
  std::string script = log.ToSqlScript();
  EXPECT_NE(script.find("SET Molecule = 'a'"), std::string::npos);
  EXPECT_NE(script.find("manual fix"), std::string::npos);
}

TEST(RepairLogTest, ContextJournalsAppliedRules) {
  DrugExample ex = MakeDrugExample();
  Table dirty = ex.dirty.Clone();
  auto lat = Lattice::Build(dirty, Repair{1, 1, "C22H28F"}, {0, 2, 3});
  ASSERT_TRUE(lat.ok());
  UserOracle oracle(&ex.clean);
  SearchStats stats;
  RepairLog log;
  LatticeSearchContext ctx(&*lat, &dirty, &oracle, 5, false, false, nullptr,
                           &stats, nullptr);
  ctx.set_repair_log(&log);

  // ML (bits: Laboratory=1, Molecule=3) is valid and gets applied+logged.
  auto res = ctx.Ask(0b1010);
  ASSERT_TRUE(res.has_value());
  ASSERT_TRUE(res->valid);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].before.size(), 2u);
  EXPECT_FALSE(log.entries()[0].manual);

  // Undo reverts both repaired cells.
  EXPECT_TRUE(log.UndoLast(dirty));
  EXPECT_EQ(dirty.CellText(1, 1), "statin");
  EXPECT_EQ(dirty.CellText(4, 1), "statin");
}

TEST(RepairLogTest, SessionLogReplaysToConvergence) {
  // The session's journal, replayed onto a fresh dirty copy, reproduces
  // the cleaned instance.
  auto ds = MakeSynth(1200);
  ASSERT_TRUE(ds.ok());
  auto dirty_inst = InjectErrors(ds->clean, ds->error_spec);
  ASSERT_TRUE(dirty_inst.ok());

  Table working = dirty_inst->dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  SessionOptions options;
  CleaningSession session(&ds->clean, &working, algo.get(), options);
  auto m = session.Run();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->converged);
  ASSERT_GT(session.log().size(), 0u);

  Table replay = dirty_inst->dirty.Clone();
  for (const RepairLog::Entry& e : session.log().entries()) {
    // Manual fixes recorded the exact cell; rules replay as SQL.
    if (e.manual) {
      for (const auto& [row, old] : e.before) {
        replay.set_cell(row, e.col, replay.Intern(e.query.set_value));
      }
    } else {
      ASSERT_TRUE(ApplyQuery(replay, e.query).ok());
    }
  }
  EXPECT_EQ(replay.CountDiffCells(ds->clean), 0u);
}

}  // namespace
}  // namespace falcon
