#include "core/session.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "errorgen/injector.h"

namespace falcon {
namespace {

struct Workload {
  Table clean;
  Table dirty;
  size_t errors;
};

Workload MakeWorkload(size_t rows = 1500) {
  auto ds = MakeSynth(rows);
  EXPECT_TRUE(ds.ok());
  auto dirty = InjectErrors(ds->clean, ds->error_spec);
  EXPECT_TRUE(dirty.ok()) << dirty.status();
  return {ds->clean.Clone(), dirty->dirty.Clone(), dirty->errors.size()};
}

TEST(SessionTest, ConvergesToCleanInstance) {
  Workload w = MakeWorkload();
  SessionOptions options;
  options.budget = 3;
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kDive, options);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->converged);
  EXPECT_EQ(m->initial_errors, w.errors);
  EXPECT_GT(m->user_updates, 0u);
}

TEST(SessionTest, EveryAlgorithmConverges) {
  Workload w = MakeWorkload(800);
  for (SearchKind kind :
       {SearchKind::kBfs, SearchKind::kDfs, SearchKind::kDucc,
        SearchKind::kDive, SearchKind::kCoDive, SearchKind::kOffline}) {
    SessionOptions options;
    options.budget = 3;
    auto m = RunCleaning(w.clean, w.dirty, kind, options);
    ASSERT_TRUE(m.ok()) << SearchKindName(kind) << ": " << m.status();
    EXPECT_TRUE(m->converged) << SearchKindName(kind);
    // Interaction accounting: answers never exceed B per update.
    EXPECT_LE(m->user_answers, m->user_updates * options.budget)
        << SearchKindName(kind);
  }
}

TEST(SessionTest, BudgetedPostingIndexMatchesUnbounded) {
  // The delta-maintained posting cache must be behaviour-preserving under
  // eviction: the same session with an unbounded and a tightly budgeted
  // cache has to produce bit-identical interaction metrics.
  Workload w = MakeWorkload(2000);
  SessionOptions unbounded;
  unbounded.budget = 3;
  SessionOptions budgeted = unbounded;
  budgeted.posting_budget_bytes = 4096;  // Tight cap: constant evictions.

  auto mu = RunCleaning(w.clean, w.dirty, SearchKind::kDive, unbounded);
  auto mb = RunCleaning(w.clean, w.dirty, SearchKind::kDive, budgeted);
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(mb->user_updates, mu->user_updates);
  EXPECT_EQ(mb->user_answers, mu->user_answers);
  EXPECT_EQ(mb->cells_repaired, mu->cells_repaired);
  EXPECT_EQ(mb->queries_applied, mu->queries_applied);
  EXPECT_EQ(mb->converged, mu->converged);
  EXPECT_TRUE(mu->converged);
  // The counters surface in the metrics: misses and patched rows, and the
  // budgeted run's evictions.
  EXPECT_GT(mu->posting_misses, 0u);
  EXPECT_GT(mu->posting_delta_rows, 0u);
  EXPECT_GT(mb->posting_evictions, 0u);
}

TEST(SessionTest, RuleErrorsAmortizeUserUpdates) {
  // Rule-injected errors come in pattern groups a single validated query
  // repairs, so U must be far below |errors| and the benefit positive for
  // multi-hop search once groups are big enough to amortize questions.
  Workload w = MakeWorkload(4000);
  SessionOptions options;
  options.budget = 5;
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kCoDive, options);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(m->user_updates, w.errors / 2);
  EXPECT_GT(m->Benefit(), 0.0);
}

TEST(SessionTest, OfflineDominatesOnlineBenefit) {
  Workload w = MakeWorkload(800);
  SessionOptions options;
  options.budget = 3;
  auto off = RunCleaning(w.clean, w.dirty, SearchKind::kOffline, options);
  auto bfs = RunCleaning(w.clean, w.dirty, SearchKind::kBfs, options);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(bfs.ok());
  EXPECT_GT(off->Benefit(), bfs->Benefit());
}

TEST(SessionTest, BiggerBudgetNeverIncreasesUpdates) {
  Workload w = MakeWorkload(800);
  SessionOptions b2;
  b2.budget = 2;
  SessionOptions b5;
  b5.budget = 5;
  auto m2 = RunCleaning(w.clean, w.dirty, SearchKind::kDive, b2);
  auto m5 = RunCleaning(w.clean, w.dirty, SearchKind::kDive, b5);
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m5.ok());
  EXPECT_LE(m5->user_updates, m2->user_updates + 5);
}

TEST(SessionTest, MetricsArithmetic) {
  SessionMetrics m;
  m.user_updates = 10;
  m.user_answers = 15;
  m.initial_errors = 100;
  EXPECT_EQ(m.TotalCost(), 25u);
  EXPECT_DOUBLE_EQ(m.Benefit(), 0.75);
  SessionMetrics zero;
  EXPECT_DOUBLE_EQ(zero.Benefit(), 0.0);
}

TEST(SessionTest, AlreadyCleanInstanceIsTrivial) {
  auto ds = MakeSynth(500);
  ASSERT_TRUE(ds.ok());
  auto m = RunCleaning(ds->clean, ds->clean, SearchKind::kDive, {});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->converged);
  EXPECT_EQ(m->TotalCost(), 0u);
}

TEST(SessionTest, RejectsMismatchedTables) {
  auto ds = MakeSynth(500);
  auto other = MakeSoccer();
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(RunCleaning(ds->clean, other->clean, SearchKind::kDive, {})
                   .ok());
  // Distinct pools are rejected even with identical shapes.
  auto ds2 = MakeSynth(500);
  ASSERT_TRUE(ds2.ok());
  EXPECT_FALSE(RunCleaning(ds->clean, ds2->clean, SearchKind::kDive, {})
                   .ok());
}

TEST(SessionTest, QuestionMistakesStillConverge) {
  Workload w = MakeWorkload(800);
  SessionOptions options;
  options.budget = 3;
  options.question_mistake_prob = 0.03;
  options.seed = 77;
  auto clean_run = RunCleaning(w.clean, w.dirty, SearchKind::kCoDive,
                               SessionOptions{});
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kCoDive, options);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->converged);
  ASSERT_TRUE(clean_run.ok());
  // Self-healing costs extra interactions (Exp-5).
  EXPECT_GE(m->TotalCost() + 5, clean_run->TotalCost());
}

TEST(SessionTest, UpdateMistakesStillConverge) {
  Workload w = MakeWorkload(800);
  SessionOptions options;
  options.budget = 3;
  options.update_mistake_prob = 0.05;
  options.seed = 78;
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kDive, options);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->converged);
}

TEST(SessionTest, NaiveMaintenanceGivesSameOutcome) {
  Workload w = MakeWorkload(800);
  SessionOptions incremental;
  SessionOptions naive;
  naive.naive_maintenance = true;
  auto a = RunCleaning(w.clean, w.dirty, SearchKind::kDive, incremental);
  auto b = RunCleaning(w.clean, w.dirty, SearchKind::kDive, naive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->converged);
  EXPECT_EQ(a->user_updates, b->user_updates);
  EXPECT_EQ(a->user_answers, b->user_answers);
}

TEST(SessionTest, MasterDataVariantConverges) {
  Workload w = MakeWorkload(800);
  SessionOptions options;
  options.lattice.exclude_target_attr = true;
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kDive, options);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->converged);
}

TEST(SessionTest, DetectorDrivenModeRepairsDetectableErrors) {
  // Without an omniscient worklist, the user only repairs what the
  // FD-violation detector flags. On Soccer most rule errors are visible
  // through group consensus; fully corrupted groups and random typos are
  // not, so the run ends honestly unconverged with a large repaired share.
  auto ds = MakeSoccer();
  ASSERT_TRUE(ds.ok());
  auto dirty_inst = InjectErrors(ds->clean, ds->error_spec);
  ASSERT_TRUE(dirty_inst.ok());

  Table working = dirty_inst->dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kCoDive);
  SessionOptions options;
  options.budget = 3;
  options.detector_driven = true;
  CleaningSession session(&ds->clean, &working, algo.get(), options);
  auto m = session.Run();
  ASSERT_TRUE(m.ok()) << m.status();

  size_t residual = working.CountDiffCells(ds->clean);
  EXPECT_LT(residual, m->initial_errors);           // Real progress.
  EXPECT_GT(m->cells_repaired, m->initial_errors / 3);
  EXPECT_EQ(m->converged, residual == 0);
  // The detector-driven user never touches clean cells.
  EXPECT_LE(m->user_updates, m->initial_errors);
}

TEST(SessionTest, DetectorDrivenOnCleanDataDoesNothing) {
  auto ds = MakeSynth(800);
  ASSERT_TRUE(ds.ok());
  Table working = ds->clean.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  SessionOptions options;
  options.detector_driven = true;
  CleaningSession session(&ds->clean, &working, algo.get(), options);
  auto m = session.Run();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->TotalCost(), 0u);
  EXPECT_TRUE(m->converged);
}

TEST(SessionTest, TimingCountersArePopulated) {
  Workload w = MakeWorkload(800);
  auto m = RunCleaning(w.clean, w.dirty, SearchKind::kDive, {});
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->lattices_built, 0u);
  EXPECT_GT(m->lattice_build_ms, 0.0);
}

}  // namespace
}  // namespace falcon
