// Property tests over many randomly chosen repairs: structural lattice
// invariants, cross-module consistency between the lattice's bitmap
// affected-sets and the SQLU evaluator run on the node's rendered query,
// and counts kept exact across random sequences of applied nodes.
#include <gtest/gtest.h>

#include <bit>

#include "common/logging.h"
#include "common/rng.h"
#include "core/lattice.h"
#include "datagen/datasets.h"
#include "errorgen/injector.h"
#include "relational/posting_index.h"
#include "relational/sqlu.h"

namespace falcon {
namespace {

struct Instance {
  Table clean;
  Table dirty;
  std::vector<ErrorCell> errors;
};

const Instance& GetInstance() {
  static const Instance* inst = [] {
    auto ds = MakeBus(3000, /*seed=*/61);
    FALCON_CHECK(ds.ok());
    auto dirty = InjectErrors(ds->clean, ds->error_spec);
    FALCON_CHECK(dirty.ok());
    return new Instance{ds->clean.Clone(), dirty->dirty.Clone(),
                        dirty->errors};
  }();
  return *inst;
}

class LatticePropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  StatusOr<Lattice> BuildForError(size_t error_index,
                                  LatticeOptions options = {}) const {
    const Instance& inst = GetInstance();
    const ErrorCell& e = inst.errors[error_index % inst.errors.size()];
    std::vector<size_t> cols;
    for (size_t c = 0; c < inst.dirty.num_cols() && cols.size() < 6; ++c) {
      if (c != e.col) cols.push_back(c);
    }
    Repair repair{e.row, e.col,
                  std::string(inst.clean.pool()->Get(e.clean_value))};
    return Lattice::Build(inst.dirty, repair, cols, options);
  }
};

TEST_P(LatticePropertyTest, AffectedSetsAreAntitone) {
  auto lat = BuildForError(GetParam());
  ASSERT_TRUE(lat.ok());
  // Adding a predicate can only shrink the affected set.
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    for (size_t b = 0; b < lat->num_attrs(); ++b) {
      NodeId child = m | (NodeId{1} << b);
      if (child == m) continue;
      RowSet both = lat->affected(child);
      both.And(lat->affected(m));
      EXPECT_EQ(both, lat->affected(child)) << "node " << m << " bit " << b;
      EXPECT_LE(lat->affected_count(child), lat->affected_count(m));
    }
  }
}

TEST_P(LatticePropertyTest, NodeQueryAgreesWithSqluEvaluator) {
  auto lat = BuildForError(GetParam());
  ASSERT_TRUE(lat.ok());
  const Instance& inst = GetInstance();
  // The lattice's bitmap sets must match evaluating the rendered SQL
  // against the same table — two independent code paths.
  for (NodeId m = 0; m < lat->num_nodes(); m += 3) {  // Sample nodes.
    SqluQuery q = lat->NodeQuery(m);
    auto rows = AffectedRows(inst.dirty, q);
    ASSERT_TRUE(rows.ok()) << q.ToSql();
    EXPECT_EQ(*rows, lat->affected(m)) << q.ToSql();
  }
}

TEST_P(LatticePropertyTest, NaiveInitMatchesViewInit) {
  auto fast = BuildForError(GetParam());
  LatticeOptions naive;
  naive.naive_init = true;
  auto slow = BuildForError(GetParam(), naive);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  // Kernel counts and count-derived representatives against the
  // strawman's popcounts.
  for (NodeId m = 0; m < fast->num_nodes(); ++m) {
    EXPECT_EQ(fast->Count(m), slow->Count(m)) << "node " << m;
    EXPECT_EQ(fast->Representative(m), slow->Representative(m))
        << "node " << m;
  }
  for (NodeId m = 0; m < fast->num_nodes(); ++m) {
    EXPECT_EQ(fast->affected(m), slow->affected(m)) << "node " << m;
  }
}

TEST_P(LatticePropertyTest, TopAffectsTheRepairedTuple) {
  const Instance& inst = GetInstance();
  const ErrorCell& e = inst.errors[GetParam() % inst.errors.size()];
  auto lat = BuildForError(GetParam());
  ASSERT_TRUE(lat.ok());
  // The repaired tuple matches every predicate (constants bound to it) and
  // its value differs from the target, so it sits in every affected set.
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    EXPECT_TRUE(lat->affected(m).Test(e.row)) << "node " << m;
  }
}

TEST_P(LatticePropertyTest, ApplyThenRecomputeAgree) {
  const Instance& inst = GetInstance();
  Table dirty = inst.dirty.Clone();
  const ErrorCell& e = inst.errors[GetParam() % inst.errors.size()];
  std::vector<size_t> cols;
  for (size_t c = 0; c < dirty.num_cols() && cols.size() < 6; ++c) {
    if (c != e.col) cols.push_back(c);
  }
  Repair repair{e.row, e.col,
                std::string(inst.clean.pool()->Get(e.clean_value))};
  auto lat = Lattice::Build(dirty, repair, cols);
  ASSERT_TRUE(lat.ok());

  Lattice reference = *lat;
  // Apply a different node per parameter to cover many shapes.
  NodeId node = static_cast<NodeId>(GetParam() * 2654435761u) %
                static_cast<NodeId>(lat->num_nodes());
  lat->ApplyNode(node, dirty);
  reference.RecomputeAffected(dirty);
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    EXPECT_EQ(lat->affected(m), reference.affected(m)) << "node " << m;
  }
}

TEST_P(LatticePropertyTest, ClosedSetRepresentativeInvariants) {
  auto lat = BuildForError(GetParam());
  ASSERT_TRUE(lat.ok());
  for (NodeId m = 0; m < lat->num_nodes(); ++m) {
    NodeId rep = lat->Representative(m);
    EXPECT_EQ(lat->affected(m), lat->affected(rep));
    EXPECT_EQ(rep & m, m);  // Representative contains m's predicates.
    EXPECT_EQ(lat->Representative(rep), rep);
  }
}

// Random ApplyNode sequences: after every apply, each maintained count must
// equal a fresh count of the current table under the same bindings (a copy
// recomputed from the table, and the SQLU evaluator on sampled nodes), and
// Representative must follow the bitmap rule: attribute i joins n's
// representative iff adding it keeps n's affected rows.
TEST_P(LatticePropertyTest, ApplySequencesKeepCountsExact) {
  const Instance& inst = GetInstance();
  Table dirty = inst.dirty.Clone();
  const ErrorCell& e = inst.errors[GetParam() % inst.errors.size()];
  std::vector<size_t> cols;
  for (size_t c = 0; c < dirty.num_cols() && cols.size() < 6; ++c) {
    if (c != e.col) cols.push_back(c);
  }
  Repair repair{e.row, e.col,
                std::string(inst.clean.pool()->Get(e.clean_value))};
  auto lat = Lattice::Build(dirty, repair, cols);
  ASSERT_TRUE(lat.ok());
  Rng rng(1000 + GetParam());
  // Half the sequences count before the first apply, so the delta pass
  // runs from the first apply on; the others apply before any count.
  if (GetParam() % 2 == 0) lat->Count(0);
  for (int step = 0; step < 4; ++step) {
    // Mostly general nodes (few attributes), which repair many rows.
    NodeId n = static_cast<NodeId>(rng.NextUint(lat->num_nodes())) &
               static_cast<NodeId>(rng.NextUint(lat->num_nodes()));
    lat->ApplyNode(n, dirty);
    Lattice fresh = *lat;
    fresh.RecomputeAffected(dirty);
    for (NodeId m = 0; m < lat->num_nodes(); ++m) {
      ASSERT_EQ(lat->Count(m), fresh.Count(m))
          << "step " << step << " applied " << n << " node " << m;
      NodeId want = m;
      for (size_t i = 0; i < lat->num_attrs(); ++i) {
        NodeId child = m | (NodeId{1} << i);
        if (fresh.affected(child) == fresh.affected(m)) want |= child;
      }
      ASSERT_EQ(lat->Representative(m), want) << "step " << step << " node "
                                              << m;
    }
    for (NodeId m = 0; m < lat->num_nodes(); m += 5) {
      auto rows = AffectedRows(dirty, lat->NodeQuery(m));
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(rows->Count(), lat->Count(m)) << "step " << step << " node "
                                              << m;
    }
  }
}

// The same apply sequences through a posting index that stores sparse
// postings as arrays: dense postings of non-repaired columns are borrowed
// in place, the rest owned. After every apply each count must equal an
// index-free lattice's recount of the current table, and the index's
// postings must still match scans (the lattice delta-maintains them).
TEST_P(LatticePropertyTest, ApplySequencesThroughPostingIndexKeepCountsExact) {
  const Instance& inst = GetInstance();
  Table dirty = inst.dirty.Clone();
  const ErrorCell& e = inst.errors[GetParam() % inst.errors.size()];
  std::vector<size_t> cols;
  for (size_t c = 0; c < dirty.num_cols() && cols.size() < 6; ++c) {
    if (c != e.col) cols.push_back(c);
  }
  Repair repair{e.row, e.col,
                std::string(inst.clean.pool()->Get(e.clean_value))};
  PostingIndexOptions index_options;
  index_options.compressed = true;
  PostingIndex index(&dirty, index_options);
  LatticeOptions options;
  options.index = &index;
  auto lat = Lattice::Build(dirty, repair, cols, options);
  auto reference = Lattice::Build(dirty, repair, cols);
  ASSERT_TRUE(lat.ok());
  ASSERT_TRUE(reference.ok());
  size_t borrowed = 0;
  for (size_t i = 0; i < lat->num_attrs(); ++i) {
    borrowed += lat->pred_borrowed(i);
    if (lat->lattice_cols()[i] == e.col) {
      EXPECT_FALSE(lat->pred_borrowed(i));
    }
  }
  // BUS's 3,000 rows give every repair a few dense predicate postings.
  EXPECT_GT(borrowed, 0u);
  EXPECT_LT(borrowed, lat->num_attrs());
  Rng rng(2000 + GetParam());
  if (GetParam() % 2 == 0) lat->Count(0);
  for (int step = 0; step < 4; ++step) {
    NodeId n = static_cast<NodeId>(rng.NextUint(lat->num_nodes())) &
               static_cast<NodeId>(rng.NextUint(lat->num_nodes()));
    lat->ApplyNode(n, dirty);
    Lattice fresh = *reference;
    fresh.RecomputeAffected(dirty);
    for (NodeId m = 0; m < lat->num_nodes(); ++m) {
      ASSERT_EQ(lat->Count(m), fresh.Count(m))
          << "step " << step << " applied " << n << " node " << m;
    }
    for (NodeId m = 0; m < lat->num_nodes(); m += 7) {
      ASSERT_EQ(lat->AffectedRows(m), fresh.AffectedRows(m))
          << "step " << step << " node " << m;
    }
    for (size_t i = 0; i < lat->num_attrs(); ++i) {
      size_t c = lat->lattice_cols()[i];
      ASSERT_EQ(index.Postings(c, lat->binding(i)).ToRowSet(dirty.num_rows()),
                dirty.ScanEquals(c, lat->binding(i)))
          << "step " << step << " attr " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManyRepairs, LatticePropertyTest,
                         ::testing::Range<size_t>(0, 12));

}  // namespace
}  // namespace falcon
