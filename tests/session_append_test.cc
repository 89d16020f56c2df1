// CleaningSession::AppendBatch: contract checks, and the equivalence proof
// behind the Fig. 8 append-vs-rebuild claim — a session whose cached state
// is incrementally maintained across appends (posting Resize+fold,
// worklist diff) must interact and converge exactly like one that drops
// and rebuilds that state, for every search algorithm and both posting
// storage modes. Also covers the append counters surfaced through
// the service status/ping verbs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/spec.h"
#include "service/protocol.h"
#include "service/session_manager.h"

namespace falcon {
namespace {

constexpr char kSpecJson[] = R"({
  "name": "t", "seed": 23, "rows": 1000,
  "fields": [
    {"name": "id",    "dist": "unique",  "prefix": "R"},
    {"name": "city",  "dist": "zipf",    "domain": 18, "skew": 1.0,
     "prefix": "C"},
    {"name": "state", "dist": "derived", "parents": ["city"], "domain": 6,
     "prefix": "S"},
    {"name": "zip",   "dist": "uniform", "domain": 20, "prefix": "Z"},
    {"name": "area",  "dist": "derived", "parents": ["zip"], "domain": 5,
     "prefix": "A"}
  ],
  "errors": {
    "rules": [{"lhs": ["city"], "rhs": "state", "patterns": 3,
               "errors_per_pattern": 4}],
    "random_errors": 8, "seed": 3
  },
  "append": {"batches": 2, "rows_per_batch": 150, "error_rate": 0.01}
})";

struct AppendFixture {
  SpecWorkload sw;
  std::vector<SpecAppendChunk> chunks;
};

AppendFixture MakeFixture() {
  auto spec = GeneratorSpec::Parse(kSpecJson);
  EXPECT_TRUE(spec.ok());
  auto sw = MakeSpecWorkload(*spec);
  EXPECT_TRUE(sw.ok()) << sw.status().message();
  AppendFixture f{std::move(sw).value(), {}};
  for (size_t b = 0; b < spec->append.batches; ++b) {
    auto chunk = f.sw.generator.AppendBatchChunk(
        spec->rows + b * spec->append.rows_per_batch,
        spec->append.rows_per_batch);
    EXPECT_TRUE(chunk.ok());
    f.chunks.push_back(std::move(chunk).value());
  }
  return f;
}

struct TwinResult {
  SessionMetrics metrics;
  uint32_t crc = 0;
};

// Runs one session: a couple of warm episodes, the full append schedule
// (growing a private clean clone in lock-step), then to convergence.
TwinResult RunTwin(const AppendFixture& f, SearchKind kind,
                   bool compressed_rowsets, bool append_rebuild) {
  SessionOptions options;
  options.budget = 3;
  options.compressed_rowsets = compressed_rowsets;
  options.append_rebuild = append_rebuild;
  Table clean = f.sw.workload.clean.Clone();
  Table working = f.sw.workload.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(kind);
  CleaningSession session(&clean, &working, algorithm.get(), options);
  auto warm = session.RunSteps(2);
  EXPECT_TRUE(warm.ok()) << warm.status().message();
  for (const SpecAppendChunk& chunk : f.chunks) {
    clean.AppendBatch(chunk.clean);
    Status st = session.AppendBatch(chunk.dirty);
    EXPECT_TRUE(st.ok()) << st.message();
  }
  auto done = session.RunSteps(0);
  EXPECT_TRUE(done.ok()) << done.status().message();
  EXPECT_TRUE(session.finished());
  return {*done, TableContentsCrc(working)};
}

TEST(SessionAppendTest, IncrementalMatchesRebuildForEveryAlgorithmAndMode) {
  AppendFixture f = MakeFixture();
  Table grown_clean = f.sw.workload.clean.Clone();
  for (const SpecAppendChunk& chunk : f.chunks) {
    grown_clean.AppendBatch(chunk.clean);
  }
  for (SearchKind kind :
       {SearchKind::kBfs, SearchKind::kDfs, SearchKind::kDucc,
        SearchKind::kDive, SearchKind::kCoDive, SearchKind::kOffline}) {
    for (bool compressed : {false, true}) {
      SCOPED_TRACE(std::string(SearchKindName(kind)) +
                   (compressed ? "/compressed" : "/dense"));
      TwinResult inc = RunTwin(f, kind, compressed, /*append_rebuild=*/false);
      TwinResult reb = RunTwin(f, kind, compressed, /*append_rebuild=*/true);
      // Identical interactions and a byte-identical final table: the
      // incremental maintenance is behavior-invisible.
      EXPECT_EQ(inc.crc, reb.crc);
      EXPECT_EQ(inc.metrics.user_updates, reb.metrics.user_updates);
      EXPECT_EQ(inc.metrics.user_answers, reb.metrics.user_answers);
      EXPECT_EQ(inc.metrics.cells_repaired, reb.metrics.cells_repaired);
      EXPECT_EQ(inc.metrics.queries_applied, reb.metrics.queries_applied);
      EXPECT_EQ(inc.metrics.initial_errors, reb.metrics.initial_errors);
      EXPECT_EQ(inc.metrics.converged, reb.metrics.converged);
      // Both twins fully cleaned the grown instance.
      EXPECT_TRUE(inc.metrics.converged);
      EXPECT_EQ(inc.crc, TableContentsCrc(grown_clean));
      // Append accounting.
      EXPECT_EQ(inc.metrics.append_batches, f.chunks.size());
      EXPECT_EQ(inc.metrics.rows_appended, f.chunks.size() * 150);
      EXPECT_GT(inc.metrics.ingest_rows_per_s, 0.0);
    }
  }
}

TEST(SessionAppendTest, AppendedErrorsAreCountedAndCleaned) {
  AppendFixture f = MakeFixture();
  size_t appended_errors = 0;
  for (const auto& chunk : f.chunks) appended_errors += chunk.errors;
  ASSERT_GT(appended_errors, 0u);
  TwinResult r =
      RunTwin(f, SearchKind::kDive, /*compressed=*/true, /*rebuild=*/false);
  EXPECT_EQ(r.metrics.initial_errors,
            f.sw.workload.errors + appended_errors);
  EXPECT_TRUE(r.metrics.converged);
}

TEST(SessionAppendTest, RejectsMisuse) {
  AppendFixture f = MakeFixture();
  SessionOptions options;
  options.budget = 3;
  Table clean = f.sw.workload.clean.Clone();
  Table working = f.sw.workload.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&clean, &working, algorithm.get(), options);

  // Before Start.
  EXPECT_EQ(session.AppendBatch(f.chunks[0].dirty).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.RunSteps(1).ok());

  // Clean table not grown first.
  EXPECT_EQ(session.AppendBatch(f.chunks[0].dirty).code(),
            StatusCode::kInvalidArgument);

  // Wrong arity.
  clean.AppendBatch(f.chunks[0].clean);
  std::vector<std::vector<ValueId>> narrow(f.chunks[0].dirty.begin(),
                                           f.chunks[0].dirty.end() - 1);
  EXPECT_EQ(session.AppendBatch(narrow).code(), StatusCode::kInvalidArgument);

  // Ragged columns.
  std::vector<std::vector<ValueId>> ragged = f.chunks[0].dirty;
  ragged.back().pop_back();
  EXPECT_EQ(session.AppendBatch(ragged).code(), StatusCode::kInvalidArgument);

  // Well-formed append still works afterwards.
  EXPECT_TRUE(session.AppendBatch(f.chunks[0].dirty).ok());
}

TEST(SessionAppendTest, JournaledSessionsRefuseAppend) {
  AppendFixture f = MakeFixture();
  SessionOptions options;
  options.budget = 3;
  options.journal_path = "/tmp/falcon_append_journal_test.wal";
  Table clean = f.sw.workload.clean.Clone();
  Table working = f.sw.workload.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&clean, &working, algorithm.get(), options);
  ASSERT_TRUE(session.RunSteps(1).ok());
  clean.AppendBatch(f.chunks[0].clean);
  EXPECT_EQ(session.AppendBatch(f.chunks[0].dirty).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceAppendMetricsTest, StatusAndPingSurfaceAppendCounters) {
  // The service builds its own (dataset, scale) workloads, so appended
  // rows stay zero here — this locks in field *presence* and types so
  // dashboards can rely on them.
  SessionManager manager(ServiceLimits{});
  SessionManager::OpenParams params;
  params.dataset = "Synth10k";
  params.scale = 0.02;
  params.seed = 7;
  auto id = manager.Open(params);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  JsonValue status_req = JsonValue::Object();
  status_req.Set("verb", "status");
  status_req.Set("session", *id);
  JsonValue r = HandleRequest(manager, status_req);
  ASSERT_TRUE(r.GetBool("ok")) << r.Serialize();
  const JsonValue* metrics = r.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->Has("rows_appended"));
  EXPECT_TRUE(metrics->Has("append_batches"));
  EXPECT_TRUE(metrics->Has("append_maintain_ms"));
  EXPECT_TRUE(metrics->Has("ingest_rows_per_s"));
  EXPECT_EQ(metrics->GetInt("rows_appended"), 0);

  JsonValue ping = JsonValue::Object();
  ping.Set("verb", "ping");
  r = HandleRequest(manager, ping);
  ASSERT_TRUE(r.GetBool("ok")) << r.Serialize();
  EXPECT_TRUE(r.Has("rows_appended"));
  EXPECT_TRUE(r.Has("append_batches"));
}

}  // namespace
}  // namespace falcon
