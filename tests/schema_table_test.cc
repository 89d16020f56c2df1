#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace falcon {
namespace {

Schema DrugSchema() {
  return Schema({"Date", "Molecule", "Laboratory", "Quantity"});
}

TEST(SchemaTest, ArityAndLookup) {
  Schema s = DrugSchema();
  EXPECT_EQ(s.arity(), 4u);
  EXPECT_EQ(s.attribute(0), "Date");
  EXPECT_EQ(s.AttrIndex("Laboratory"), 2);
  EXPECT_EQ(s.AttrIndex("Nope"), -1);
}

TEST(SchemaTest, Equality) {
  EXPECT_EQ(DrugSchema(), DrugSchema());
  EXPECT_FALSE(DrugSchema() == Schema({"A"}));
}

TEST(TableTest, AppendAndRead) {
  Table t("T", DrugSchema());
  t.AppendRow({"11 Nov", "statin", "Austin", "200"});
  t.AppendRow({"12 Nov", "statin", "Boston", "200"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 4u);
  EXPECT_EQ(t.CellText(0, 2), "Austin");
  EXPECT_EQ(t.CellText(1, 2), "Boston");
  // Same string interns to same id across rows and columns.
  EXPECT_EQ(t.cell(0, 1), t.cell(1, 1));
  EXPECT_EQ(t.cell(0, 3), t.cell(1, 3));
}

TEST(TableTest, SetCellText) {
  Table t("T", DrugSchema());
  t.AppendRow({"11 Nov", "statin", "Austin", "200"});
  t.SetCellText(0, 1, "C22H28F");
  EXPECT_EQ(t.CellText(0, 1), "C22H28F");
}

TEST(TableTest, ScanEquals) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Austin", "100"});
  t.AppendRow({"c", "statin", "Boston", "200"});
  RowSet austin = t.ScanEquals(2, t.Lookup("Austin"));
  EXPECT_EQ(austin.ToVector(), (std::vector<uint32_t>{0, 1}));
  RowSet statin = t.ScanEquals(1, t.Lookup("statin"));
  EXPECT_EQ(statin.ToVector(), (std::vector<uint32_t>{0, 2}));
}

TEST(TableTest, ScanEqualsCrossesWordBoundaries) {
  // >64 rows so the word-blocked kernel handles full and partial words.
  Table t("T", Schema({"A"}));
  for (size_t r = 0; r < 150; ++r) {
    t.AppendRow({r % 3 == 0 ? "hit" : "miss"});
  }
  RowSet rows = t.ScanEquals(0, t.Lookup("hit"));
  EXPECT_EQ(rows.Count(), 50u);
  for (size_t r = 0; r < 150; ++r) {
    EXPECT_EQ(rows.Test(r), r % 3 == 0) << "row " << r;
  }
}

TEST(TableTest, ScanConjunction) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Austin", "100"});
  t.AppendRow({"c", "statin", "Boston", "200"});
  RowSet rows = t.ScanConjunction(
      {{1, t.Lookup("statin")}, {2, t.Lookup("Austin")}});
  EXPECT_EQ(rows.ToVector(), (std::vector<uint32_t>{0}));
  // Empty conjunction matches everything.
  EXPECT_EQ(t.ScanConjunction({}).Count(), 3u);
}

TEST(TableTest, DistinctCountIgnoresNull) {
  Table t("T", Schema({"A"}));
  t.AppendRow({"x"});
  t.AppendRow({"y"});
  t.AppendRow({"x"});
  t.AppendRow({""});  // NULL.
  EXPECT_EQ(t.DistinctCount(0), 2u);
}

// Reference count: a hash set of the non-null ids.
size_t ReferenceDistinct(const Table& t, size_t col) {
  std::unordered_set<ValueId> seen;
  for (ValueId v : t.column(col)) {
    if (v != kNullValueId) seen.insert(v);
  }
  return seen.size();
}

TEST(TableTest, DistinctCountMatchesHashSetReference) {
  Table empty("T", Schema({"A"}));
  EXPECT_EQ(empty.DistinctCount(0), 0u);

  Rng rng(17);
  Table t("T", Schema({"Small", "Sparse", "Key", "Nulls"}));
  // Intern enough values that the sparse column's ids run high and far
  // apart (past several bit-vector words between neighbours).
  std::vector<ValueId> ids;
  for (size_t i = 0; i < 200000; ++i) {
    ids.push_back(t.Intern(std::to_string(i)));
  }
  const size_t rows = (size_t{1} << 16) + 1000;  // More than 64Ki rows.
  std::vector<std::vector<ValueId>> chunk(4);
  for (size_t r = 0; r < rows; ++r) {
    chunk[0].push_back(rng.NextBool(0.1) ? kNullValueId
                                         : ids[rng.NextUint(12)]);
    chunk[1].push_back(rng.NextBool(0.2)
                           ? kNullValueId
                           : ids[199999 - 997 * rng.NextUint(200)]);
    chunk[2].push_back(ids[r % ids.size()]);
    chunk[3].push_back(kNullValueId);
  }
  t.AppendBatch(chunk);
  ASSERT_EQ(t.num_rows(), rows);
  for (size_t c = 0; c < t.num_cols(); ++c) {
    EXPECT_EQ(t.DistinctCount(c), ReferenceDistinct(t, c)) << "column " << c;
  }
  EXPECT_EQ(t.DistinctCount(2), rows);
  EXPECT_EQ(t.DistinctCount(3), 0u);
}

TEST(TableTest, CloneSharesPoolButNotCells) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  Table copy = t.Clone();
  EXPECT_EQ(copy.pool(), t.pool());
  copy.SetCellText(0, 2, "Boston");
  EXPECT_EQ(t.CellText(0, 2), "Austin");
  EXPECT_EQ(copy.CellText(0, 2), "Boston");
}

TEST(TableTest, CountDiffCells) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Boston", "100"});
  Table copy = t.Clone();
  EXPECT_EQ(t.CountDiffCells(copy), 0u);
  copy.SetCellText(0, 1, "x");
  copy.SetCellText(1, 3, "y");
  EXPECT_EQ(t.CountDiffCells(copy), 2u);
}

TEST(TableTest, CloneSharesColumnStorageUntilWritten) {
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  t.AppendRow({"b", "other", "Boston", "100"});
  EXPECT_EQ(t.SharedColumnCount(), 0u);

  Table copy = t.Clone();
  // All four columns are shared on both sides — Clone is O(arity).
  EXPECT_EQ(t.SharedColumnCount(), 4u);
  EXPECT_EQ(copy.SharedColumnCount(), 4u);

  // Writing one cell detaches exactly that column; the rest stay shared.
  copy.SetCellText(0, 2, "Boston");
  EXPECT_EQ(copy.SharedColumnCount(), 3u);
  EXPECT_EQ(t.SharedColumnCount(), 3u);
  EXPECT_EQ(t.CellText(0, 2), "Austin");

  // A second write to the already-private column detaches nothing more.
  copy.SetCellText(1, 2, "Austin");
  EXPECT_EQ(copy.SharedColumnCount(), 3u);
}

TEST(TableTest, ManySnapshotsLeaveBaseUntouched) {
  Table base("T", DrugSchema());
  for (int i = 0; i < 64; ++i) {
    base.AppendRow({"id" + std::to_string(i), "statin", "Austin", "200"});
  }
  std::vector<Table> snaps;
  for (int s = 0; s < 8; ++s) snaps.push_back(base.Clone());
  for (int s = 0; s < 8; ++s) {
    snaps[s].SetCellText(static_cast<size_t>(s), 2, "Boston");
  }
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(base.CountDiffCells(snaps[s]), 1u) << "snapshot " << s;
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(base.CellText(i, 2), "Austin");
}

TEST(TableTest, WritingTheBaseDetachesFromSnapshots) {
  // COW must protect both directions: a clone is also isolated from later
  // writes to the table it was cloned from.
  Table t("T", DrugSchema());
  t.AppendRow({"a", "statin", "Austin", "200"});
  Table snap = t.Clone();
  t.SetCellText(0, 3, "999");
  EXPECT_EQ(snap.CellText(0, 3), "200");
  EXPECT_EQ(t.CellText(0, 3), "999");
}

TEST(TableTest, ToStringTruncates) {
  Table t("T", Schema({"A"}));
  for (int i = 0; i < 30; ++i) t.AppendRow({std::to_string(i)});
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace falcon
