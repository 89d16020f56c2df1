#include "profiling/correlation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/datasets.h"

namespace falcon {
namespace {

// Columns of T_drug: 0=Date, 1=Molecule, 2=Laboratory, 3=Quantity.

TEST(CorrelationTest, ChiSquaredReproducesPaperExample7) {
  DrugExample ex = MakeDrugExample();
  // The paper computes chi^2 = 12.67 over the Molecule × Laboratory
  // contingency table of the dirty T_drug (Table 2).
  double chi2 = ChiSquared(ex.dirty, {1, 2});
  EXPECT_NEAR(chi2, 12.67, 0.01);
  // Pinned to the bit: the chi² sum runs over the joint combinations in
  // first-seen row order, so it does not depend on hash layout.
  EXPECT_EQ(chi2, 0x1.9555555555558p+3);
}

// Scores pinned to the bit on a fixed Synth table, through the chi² path
// (soft FDs disabled) over the whole table and over a 5,000-row sample,
// plus soft-FD supports, which are exact ratios of distinct counts.
TEST(CorrelationTest, SynthScoresArePinned) {
  auto ds = MakeSynth(20000, 1);
  ASSERT_TRUE(ds.ok());
  const Table& t = ds->clean;
  ASSERT_EQ(t.num_cols(), 10u);
  CorrelationOptions full;
  full.soft_fd_threshold = 1.01;
  CorrelationOptions sampled = full;
  sampled.max_sample_rows = 5000;
  EXPECT_EQ(CorrelationScore(t, {3}, 4, full), 0x1.baf1f74a6c8c5p-11);
  EXPECT_EQ(CorrelationScore(t, {7}, 6, full), 0x1.d0fb1763988e3p-8);
  EXPECT_EQ(CorrelationScore(t, {1, 4}, 9, full), 0x1.45e4fb11b47cbp-10);
  EXPECT_EQ(CorrelationScore(t, {4, 8}, 1, sampled), 0x1.0574e52b5fa7ap-8);
  EXPECT_EQ(CorrelationScore(t, {7, 9}, 8, sampled), 0x1.932d9fd679f89p-13);
  EXPECT_EQ(FdSupport(t, {4, 8}, 1, sampled), 0x1.d226357e16ecep-2);
  EXPECT_EQ(FdSupport(t, {1}, 0, full), 0x1.fbe76c8b43958p-8);
  // A soft FD scores exactly 1 with the default threshold.
  EXPECT_EQ(CorrelationScore(t, {0, 8}, 2), 1.0);
}

TEST(CorrelationTest, CorrelationScoreReproducesPaperExample7) {
  DrugExample ex = MakeDrugExample();
  CorrelationOptions options;
  options.soft_fd_threshold = 1.01;  // Disable the soft-FD fast path.
  double cor = CorrelationScore(ex.dirty, {1}, 2, options);
  EXPECT_NEAR(cor, 0.235, 0.001);
}

TEST(CorrelationTest, SoftFdScoresOne) {
  DrugExample ex = MakeDrugExample();
  // {Molecule, Laboratory} → Quantity holds exactly on the dirty table
  // (paper Example 7's given soft FD).
  EXPECT_DOUBLE_EQ(FdSupport(ex.dirty, {1, 2}, 3), 1.0);
  EXPECT_DOUBLE_EQ(CorrelationScore(ex.dirty, {1, 2}, 3), 1.0);
}

TEST(CorrelationTest, FdSupportBelowOneForNonFd) {
  DrugExample ex = MakeDrugExample();
  // Molecule alone does not determine Laboratory (statin maps to Austin
  // and Boston).
  EXPECT_LT(FdSupport(ex.dirty, {1}, 2), 1.0);
}

TEST(CorrelationTest, NullRowsAreIgnored) {
  Table t("t", Schema({"A", "B"}));
  t.AppendRow({"a1", "b1"});
  t.AppendRow({"a1", "b1"});
  t.AppendRow({"a2", "b2"});
  t.AppendRow({"", "b9"});   // NULL A.
  t.AppendRow({"a9", ""});   // NULL B.
  EXPECT_DOUBLE_EQ(FdSupport(t, {0}, 1), 1.0);
  EXPECT_DOUBLE_EQ(CorrelationScore(t, {0}, 1), 1.0);
}

TEST(CorrelationTest, IndependentAttributesScoreLow) {
  Table t("t", Schema({"A", "B"}));
  // Perfectly independent 2x2 design, 100 rows each combination.
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({"a0", "b0"});
    t.AppendRow({"a0", "b1"});
    t.AppendRow({"a1", "b0"});
    t.AppendRow({"a1", "b1"});
  }
  CorrelationOptions options;
  options.soft_fd_threshold = 1.01;
  EXPECT_NEAR(CorrelationScore(t, {0}, 1, options), 0.0, 1e-9);
}

TEST(CorrelationTest, PerfectDependenceScoresHigh) {
  Table t("t", Schema({"A", "B"}));
  for (int i = 0; i < 50; ++i) {
    t.AppendRow({"a" + std::to_string(i % 4), "b" + std::to_string(i % 4)});
  }
  CorrelationOptions options;
  options.soft_fd_threshold = 1.01;  // Force the chi^2 path.
  // With the paper's q-normalization, perfect m×m dependence scores
  // chi^2/(n*q) = n(m-1) / (n(m^2-2m+1)) = 1/(m-1): 1/3 for m = 4 —
  // well above the 0 an independent pair scores.
  EXPECT_NEAR(CorrelationScore(t, {0}, 1, options), 1.0 / 3.0, 0.02);
}

TEST(CordsProfilerTest, TopKRanksDeterminants) {
  auto ds = MakeSoccer();
  ASSERT_TRUE(ds.ok()) << ds.status();
  const Table& t = ds->clean;
  CordsProfiler profiler(&t);
  int stadium = t.schema().AttrIndex("Stadium");
  int club = t.schema().AttrIndex("Club");
  int position = t.schema().AttrIndex("Position");
  ASSERT_GE(stadium, 0);

  // Club determines Stadium, so Club must rank far above Position.
  std::vector<size_t> top =
      profiler.TopKAttributes(static_cast<size_t>(stadium), 6);
  auto rank = [&](int col) {
    for (size_t i = 0; i < top.size(); ++i) {
      if (top[i] == static_cast<size_t>(col)) return static_cast<int>(i);
    }
    return 1000;
  };
  EXPECT_LT(rank(club), rank(position));
  EXPECT_EQ(rank(stadium), 1000);  // Target never appears.
}

TEST(CordsProfilerTest, PairCorrelationIsCached) {
  DrugExample ex = MakeDrugExample();
  CordsProfiler profiler(&ex.dirty);
  double a = profiler.PairCorrelation(1, 2);
  double b = profiler.PairCorrelation(1, 2);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(CordsProfilerTest, SetCorrelationHandlesSets) {
  auto ds = MakeSoccer();
  ASSERT_TRUE(ds.ok());
  const Table& t = ds->clean;
  CordsProfiler profiler(&t);
  size_t club = static_cast<size_t>(t.schema().AttrIndex("Club"));
  size_t pos = static_cast<size_t>(t.schema().AttrIndex("Position"));
  size_t pcountry =
      static_cast<size_t>(t.schema().AttrIndex("PlayerCountry"));
  // {Club, Position} → PlayerCountry is an exact FD of the generator.
  EXPECT_DOUBLE_EQ(profiler.SetCorrelation({club, pos}, pcountry), 1.0);
  // Position alone is far weaker.
  EXPECT_LT(profiler.PairCorrelation(pos, pcountry), 0.5);
}

// Joint counting against a direct reference (std::map over value tuples)
// on up to 10 columns. C0 is a row id (13 bits of codes) and C1–C6 repeat
// every 1,024 rows (10 bits each), so seven columns need 73 bits: the
// packed row keys must fold, or rows 1,024 apart would collide. With NULLs
// and low-cardinality columns.
TEST(CorrelationTest, WideTuplesMatchReferenceCounts) {
  const size_t kRows = 6000;
  const size_t kCols = 10;
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("C" + std::to_string(c));
  Table t("t", Schema(names));
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<std::string> row;
    for (size_t c = 0; c < kCols; ++c) {
      size_t v = c == 0 ? i : c <= 6 ? (i * c) % 1024 : i % (c - 4);
      // Every 97th row has a NULL, in a column that cycles.
      row.push_back(i % 97 == 0 && c == i % kCols ? ""
                                                   : "v" + std::to_string(v));
    }
    t.AppendRow(row);
  }

  for (size_t k : {2, 3, 7, 10}) {
    std::vector<size_t> cols(k);
    for (size_t j = 0; j < k; ++j) cols[j] = j;
    SCOPED_TRACE(std::to_string(k) + " columns");
    std::map<std::vector<ValueId>, double> joint;
    std::vector<std::map<ValueId, double>> marginals(k);
    std::set<std::vector<ValueId>> prefixes;
    double n = 0;
    for (size_t r = 0; r < kRows; ++r) {
      std::vector<ValueId> key;
      for (size_t c : cols) key.push_back(t.cell(r, c));
      if (std::count(key.begin(), key.end(), kNullValueId) > 0) continue;
      n += 1;
      joint[key] += 1;
      for (size_t j = 0; j < k; ++j) marginals[j][key[j]] += 1;
      prefixes.insert(std::vector<ValueId>(key.begin(), key.end() - 1));
    }
    double chi2 = 0;
    double expected_sum = 0;
    for (const auto& [key, obs] : joint) {
      double e = n;
      for (size_t j = 0; j < k; ++j) e *= marginals[j][key[j]] / n;
      chi2 += (obs - e) * (obs - e) / e;
      expected_sum += e;
    }
    chi2 += n - expected_sum;

    std::vector<size_t> x(cols.begin(), cols.end() - 1);
    EXPECT_EQ(FdSupport(t, x, cols.back()),
              static_cast<double>(prefixes.size()) /
                  static_cast<double>(joint.size()));
    EXPECT_NEAR(ChiSquared(t, cols), chi2, 1e-9 * chi2);
  }
}

// The profiler keeps its sample as a snapshot of the sampled cells. Every
// cache miss must still score the table as it is at that moment, bit for
// bit what the free CorrelationScore computes on it: after cell writes to
// sampled and unsampled rows and after appends that re-sample. A 64-row
// sample of a larger table takes the snapshot path; max_sample_rows = 0
// takes the whole-table path.
void CheckProfilerFollowsTable(size_t max_sample_rows, uint64_t seed) {
  const size_t kCols = 7;
  std::vector<std::string> names;
  for (size_t c = 0; c < kCols; ++c) names.push_back("C" + std::to_string(c));
  Table t("t", Schema(names));
  Rng rng(seed);
  // Small domains, with column c partly determined by column c - 1 so the
  // scores are neither all 0 nor all soft FDs; about 3% NULLs.
  auto random_value = [&](size_t c, ValueId left) -> ValueId {
    if (rng.NextBool(0.03)) return kNullValueId;
    uint64_t v = c > 0 && rng.NextBool(0.6) ? left % 5 : rng.NextUint(5);
    return t.Intern("v" + std::to_string(c) + "_" + std::to_string(v));
  };
  auto append_rows = [&](size_t rows) {
    std::vector<std::vector<ValueId>> chunk(kCols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        chunk[c].push_back(random_value(c, c > 0 ? chunk[c - 1].back() : 0));
      }
    }
    t.AppendBatch(chunk);
  };
  append_rows(1000);

  CorrelationOptions fd_on;
  fd_on.max_sample_rows = max_sample_rows;
  CorrelationOptions fd_off = fd_on;
  fd_off.soft_fd_threshold = 1.01;  // Every score takes the chi² path.
  CordsProfiler with_fds(&t, fd_on);
  CordsProfiler chi2_only(&t, fd_off);

  // Every (X, B) with |X| <= 3 is a fresh cache key, visited once each in
  // a shuffled order, so each check below is a miss.
  std::vector<std::pair<std::vector<size_t>, size_t>> keys;
  for (size_t b = 0; b < kCols; ++b) {
    for (uint32_t mask = 1; mask < (1u << kCols); ++mask) {
      if ((mask >> b) & 1 || std::popcount(mask) > 3) continue;
      std::vector<size_t> x;
      for (size_t c = 0; c < kCols; ++c) {
        if ((mask >> c) & 1) x.push_back(c);
      }
      keys.emplace_back(x, b);
    }
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextUint(i)]);
  }

  size_t step = 0;
  for (const auto& [x, b] : keys) {
    // Touch one of the key's own columns, in a sampled row (one the
    // evenly strided sample visits) or in any row, or grow the table.
    size_t col = rng.NextBool(0.5) ? b : x[rng.NextUint(x.size())];
    size_t n = t.num_rows();
    switch (step++ % 5) {
      case 0:
      case 1: {
        size_t row = n - 1;
        if (max_sample_rows > 0 && n > max_sample_rows) {
          double stride = static_cast<double>(n) /
                          static_cast<double>(max_sample_rows);
          row = static_cast<size_t>(
              static_cast<double>(rng.NextUint(max_sample_rows)) * stride);
        }
        t.set_cell(row, col,
                   random_value(col, col > 0 ? t.cell(row, col - 1) : 0));
        break;
      }
      case 2:
      case 3:
        t.set_cell(rng.NextUint(n), col, random_value(col, 0));
        break;
      default:
        append_rows(1 + rng.NextUint(40));
        break;
    }
    SCOPED_TRACE("step " + std::to_string(step) + ", " +
                 std::to_string(t.num_rows()) + " rows");
    double got = x.size() == 1 ? with_fds.PairCorrelation(x[0], b)
                               : with_fds.SetCorrelation(x, b);
    EXPECT_EQ(got, CorrelationScore(t, x, b, fd_on));
    EXPECT_EQ(chi2_only.SetCorrelation(x, b),
              CorrelationScore(t, x, b, fd_off));
  }
}

TEST(CordsProfilerTest, SampleSnapshotFollowsWritesAndAppends) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckProfilerFollowsTable(/*max_sample_rows=*/64, seed);
  }
}

TEST(CordsProfilerTest, WholeTableSampleFollowsWritesAndAppends) {
  CheckProfilerFollowsTable(/*max_sample_rows=*/0, 4);
}

TEST(CorrelationTest, SamplingStaysClose) {
  auto ds = MakeSynth(4000);
  ASSERT_TRUE(ds.ok());
  const Table& t = ds->clean;
  int a1 = t.schema().AttrIndex("A1");
  int a5 = t.schema().AttrIndex("A5");
  ASSERT_GE(a1, 0);
  ASSERT_GE(a5, 0);
  CorrelationOptions full;
  CorrelationOptions sampled;
  sampled.max_sample_rows = 1000;
  double f = CorrelationScore(t, {static_cast<size_t>(a1)},
                              static_cast<size_t>(a5), full);
  double s = CorrelationScore(t, {static_cast<size_t>(a1)},
                              static_cast<size_t>(a5), sampled);
  EXPECT_NEAR(f, s, 0.15);
}

}  // namespace
}  // namespace falcon
