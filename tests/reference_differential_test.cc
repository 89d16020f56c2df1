// Randomized reference differential: the default session (lazy lattice,
// compressed row sets, incremental maintenance, posting index) must behave
// exactly like the simple reference path — eager dense lattices rebuilt
// after every applied rule and no posting index — on seeded random
// GeneratorSpec workloads, for CoDive and for the Dive and DFS searches. "Exactly" means the same
// questions in the same order (node, target column, verdict), the same
// user cost U and A, the same final table, and convergence to the clean
// instance. Every derived spec column is an exact function of its parents,
// so each rule error sits on an FD the lattice can generalize.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/spec.h"

namespace falcon {
namespace {

// Answers like the session's internal simulated user (same constructor
// arguments) while recording every question it was asked.
class RecordingOracle : public UserOracle {
 public:
  struct Asked {
    NodeId node;
    size_t target_col;
    bool valid;
    bool operator==(const Asked&) const = default;
  };

  RecordingOracle(const Table* clean, uint64_t session_seed)
      : UserOracle(clean, /*mistake_prob=*/0.0, session_seed + 1) {}

  Answered AnswerEx(const Lattice& lattice, NodeId n) override {
    Answered a = UserOracle::AnswerEx(lattice, n);
    asked_.push_back({n, lattice.target_col(), a.valid});
    return a;
  }

  const std::vector<Asked>& asked() const { return asked_; }

 private:
  std::vector<Asked> asked_;
};

// A random spec of at most 3k rows: 2–3 independent root fields, then 2–4
// derived fields over 1–2 earlier fields, each derived field carrying a
// rule-error recipe along its FD, plus a few random errors.
GeneratorSpec RandomSpec(uint64_t seed) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.name = "diff" + std::to_string(seed);
  spec.seed = seed;
  spec.rows = 1000 + rng.NextUint(2001);
  size_t roots = 2 + rng.NextUint(2);
  for (size_t i = 0; i < roots; ++i) {
    SpecField f;
    f.name = "R" + std::to_string(i);
    f.prefix = f.name;
    f.dist = rng.NextBool(0.5) ? SpecField::Dist::kZipf
                               : SpecField::Dist::kUniform;
    f.domain = 5 + rng.NextUint(40);
    spec.fields.push_back(f);
  }
  size_t derived = 2 + rng.NextUint(3);
  for (size_t i = 0; i < derived; ++i) {
    SpecField f;
    f.name = "D" + std::to_string(i);
    f.prefix = f.name;
    f.dist = SpecField::Dist::kDerived;
    f.domain = 3 + rng.NextUint(20);
    size_t earlier = spec.fields.size();
    size_t first = rng.NextUint(earlier);
    f.parents.push_back(spec.fields[first].name);
    if (rng.NextBool(0.5)) {
      size_t second = (first + 1 + rng.NextUint(earlier - 1)) % earlier;
      f.parents.push_back(spec.fields[second].name);
    }
    SpecRuleError rule;
    rule.lhs = f.parents;
    rule.rhs = f.name;
    rule.patterns = 1 + rng.NextUint(3);
    rule.errors_per_pattern = 2 + rng.NextUint(5);
    spec.errors.rules.push_back(rule);
    spec.fields.push_back(f);
  }
  spec.errors.random_errors = rng.NextUint(6);
  spec.errors.seed = seed * 7 + 1;
  return spec;
}

struct Outcome {
  SessionMetrics metrics;
  uint32_t crc = 0;
  size_t diff_to_clean = 0;
  std::vector<RecordingOracle::Asked> asked;
};

Outcome RunSession(const CleaningWorkload& w, SearchKind kind, bool reference,
                   uint64_t seed) {
  SessionOptions options;
  options.seed = seed;
  if (reference) {
    options.naive_maintenance = true;
    options.lattice.lazy = false;
    options.use_posting_index = false;
    options.compressed_rowsets = false;
  }
  RecordingOracle oracle(&w.clean, seed);
  options.oracle = &oracle;
  Table working = w.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(kind);
  CleaningSession session(&w.clean, &working, algorithm.get(), options);
  auto m = session.Run();
  EXPECT_TRUE(m.ok()) << m.status().message();
  Outcome out;
  if (m.ok()) out.metrics = *m;
  out.crc = TableContentsCrc(working);
  out.diff_to_clean = working.CountDiffCells(w.clean);
  out.asked = oracle.asked();
  return out;
}

void CheckMatchesReferenceOnRandomSpecs(SearchKind kind) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorSpec spec = RandomSpec(seed);
    SCOPED_TRACE(std::string(SearchKindName(kind)) + ", spec seed " +
                 std::to_string(seed) + ", " + std::to_string(spec.rows) +
                 " rows, " + std::to_string(spec.fields.size()) + " fields");
    auto sw = MakeSpecWorkload(spec);
    ASSERT_TRUE(sw.ok()) << sw.status().message();
    const CleaningWorkload& w = sw->workload;
    ASSERT_GT(w.dirty.CountDiffCells(w.clean), 0u);

    Outcome fast = RunSession(w, kind, /*reference=*/false, 100 + seed);
    Outcome ref = RunSession(w, kind, /*reference=*/true, 100 + seed);

    EXPECT_TRUE(ref.metrics.converged);
    EXPECT_EQ(ref.diff_to_clean, 0u);
    EXPECT_TRUE(fast.metrics.converged);
    EXPECT_EQ(fast.diff_to_clean, 0u);
    EXPECT_EQ(fast.metrics.user_updates, ref.metrics.user_updates);
    EXPECT_EQ(fast.metrics.user_answers, ref.metrics.user_answers);
    EXPECT_EQ(fast.crc, ref.crc);
    ASSERT_EQ(fast.asked.size(), ref.asked.size());
    for (size_t i = 0; i < fast.asked.size(); ++i) {
      EXPECT_TRUE(fast.asked[i] == ref.asked[i]) << "question " << i;
    }
    // The specs must actually exercise rule generalization, not just
    // per-cell fixes.
    EXPECT_GT(ref.metrics.user_answers, 0u);
  }
}

TEST(ReferenceDifferentialTest, DefaultSessionMatchesReferenceOnRandomSpecs) {
  CheckMatchesReferenceOnRandomSpecs(SearchKind::kCoDive);
}

// Dive and DFS search lattices built from the pairwise TopK ranking but
// never ask for set correlations, so they cover search paths CoDive does
// not take.
TEST(ReferenceDifferentialTest, DiveMatchesReferenceOnRandomSpecs) {
  CheckMatchesReferenceOnRandomSpecs(SearchKind::kDive);
}

TEST(ReferenceDifferentialTest, DfsMatchesReferenceOnRandomSpecs) {
  CheckMatchesReferenceOnRandomSpecs(SearchKind::kDfs);
}

}  // namespace
}  // namespace falcon
