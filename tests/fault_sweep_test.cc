// The crash-safety acceptance harness: enumerate every injectable fault
// point a cleaning run passes through, crash the session at each one,
// recover from the journal, and require the recovered run to be
// bit-identical to the uninterrupted baseline — same table contents (CRC
// over all cell text) and same interaction counters (user_updates,
// user_answers, cells_repaired, queries_applied). Plus the session-level
// rule-retraction properties.
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/json.h"
#include "common/socket.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "errorgen/injector.h"
#include "service/resilient_client.h"
#include "service/server.h"
#include "service/session_manager.h"

namespace falcon {
namespace {

struct Workload {
  Table clean;
  Table dirty;
  size_t errors;
};

Workload MakeWorkload(size_t rows) {
  auto ds = MakeSynth(rows);
  EXPECT_TRUE(ds.ok());
  auto dirty = InjectErrors(ds->clean, ds->error_spec);
  EXPECT_TRUE(dirty.ok()) << dirty.status();
  return {ds->clean.Clone(), dirty->dirty.Clone(), dirty->errors.size()};
}

SessionOptions SweepOptions(const std::string& journal) {
  SessionOptions opt;
  opt.budget = 3;
  // Mistakes exercise the replay-override paths: journaled wrong updates
  // and flipped oracle verdicts must reproduce even though recovery's RNGs
  // are re-seeded and replayed from the start.
  opt.update_mistake_prob = 0.2;
  opt.question_mistake_prob = 0.05;
  opt.journal_path = journal;
  return opt;
}

struct Baseline {
  SessionMetrics metrics;
  uint32_t table_crc = 0;
  std::vector<std::pair<std::string, size_t>> hits;
};

// The discovery pass: run uninterrupted with hit recording on, capturing
// the reference outcome and how many times each fault site is passed.
Baseline RunBaseline(const Workload& w, const SessionOptions& opt) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().set_recording(true);
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  EXPECT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->converged);
  Baseline base{*m, TableContentsCrc(dirty), FaultInjector::Global().Counts()};
  FaultInjector::Global().set_recording(false);
  FaultInjector::Global().Reset();
  return base;
}

void ExpectMatchesBaseline(const SessionMetrics& m, uint32_t crc,
                           const Baseline& base) {
  EXPECT_EQ(m.user_updates, base.metrics.user_updates);
  EXPECT_EQ(m.user_answers, base.metrics.user_answers);
  EXPECT_EQ(m.cells_repaired, base.metrics.cells_repaired);
  EXPECT_EQ(m.queries_applied, base.metrics.queries_applied);
  EXPECT_EQ(m.converged, base.metrics.converged);
  EXPECT_EQ(crc, base.table_crc);
}

// Crashes one run at the nth hit of `site`, then recovers with a brand-new
// session (fresh algorithm, fresh RNGs — only the journal and the mutated
// table survive, as they would a real process death).
void CrashAndRecover(const Workload& w, const SessionOptions& opt,
                     const Baseline& base, const std::string& site,
                     size_t nth) {
  SCOPED_TRACE(site + ":" + std::to_string(nth));
  FaultInjector::Global().Reset();
  Table dirty = w.dirty.Clone();
  {
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), opt);
    FaultInjector::Global().Arm(
        {site, nth, /*count=*/1, StatusCode::kIoError});
    auto m = session.Run();
    FaultInjector::Global().Reset();
    ASSERT_FALSE(m.ok()) << "fault " << site << ":" << nth
                         << " never fired; the run completed";
    // The crashed session is destroyed here, closing its journal handle —
    // recovery only ever sees what a dead process would leave on disk.
  }
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto recovered = session.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectMatchesBaseline(*recovered, TableContentsCrc(dirty), base);
}

TEST(FaultSweepTest, EveryCrashPointRecoversBitIdentical) {
  Workload w = MakeWorkload(120);
  ASSERT_GT(w.errors, 0u);
  std::string journal = testing::TempDir() + "/fault_sweep.journal";
  SessionOptions opt = SweepOptions(journal);
  Baseline base = RunBaseline(w, opt);

  // Every instrumented site must show up in the discovery pass, or the
  // sweep would silently stop covering a code path.
  std::set<std::string> seen;
  for (const auto& [site, count] : base.hits) seen.insert(site);
  for (const char* site :
       {"journal.append", "journal.torn", "journal.sync", "oracle.answer",
        "apply.rule", "apply.write", "manual.write", "session.update"}) {
    EXPECT_TRUE(seen.count(site)) << "site never hit: " << site;
  }

  for (const auto& [site, count] : base.hits) {
    // First, last, and an even sample in between: every site's boundary
    // hits plus enough interior points to catch ordinal-dependent bugs.
    std::set<size_t> picks = {1, count};
    size_t stride = std::max<size_t>(1, count / 5);
    for (size_t nth = 1; nth <= count; nth += stride) picks.insert(nth);
    for (size_t nth : picks) CrashAndRecover(w, opt, base, site, nth);
  }
}

TEST(FaultSweepTest, JournalingIsBehaviorNeutral) {
  // Turning the journal on must not change a single interaction: the
  // write-ahead records observe the run, never steer it.
  Workload w = MakeWorkload(200);
  std::string journal = testing::TempDir() + "/neutral.journal";
  SessionOptions with = SweepOptions(journal);
  SessionOptions without = with;
  without.journal_path.clear();
  auto mj = RunCleaning(w.clean, w.dirty, SearchKind::kDive, with);
  auto mp = RunCleaning(w.clean, w.dirty, SearchKind::kDive, without);
  ASSERT_TRUE(mj.ok()) << mj.status();
  ASSERT_TRUE(mp.ok()) << mp.status();
  EXPECT_EQ(mj->user_updates, mp->user_updates);
  EXPECT_EQ(mj->user_answers, mp->user_answers);
  EXPECT_EQ(mj->cells_repaired, mp->cells_repaired);
  EXPECT_EQ(mj->queries_applied, mp->queries_applied);
  EXPECT_TRUE(mj->converged);
}

TEST(FaultSweepTest, RecoverReplaysACompletedRunToTheSameOutcome) {
  // Full replay with zero live continuation: recover over a journal whose
  // session ran to convergence. The rollback must unwind the whole run and
  // the replay must land on exactly the same counters and table.
  Workload w = MakeWorkload(150);
  std::string journal = testing::TempDir() + "/completed.journal";
  SessionOptions opt = SweepOptions(journal);
  Baseline base = RunBaseline(w, opt);

  Table dirty = w.dirty.Clone();
  {
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), opt);
    auto m = session.Run();
    ASSERT_TRUE(m.ok()) << m.status();
  }
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto recovered = session.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectMatchesBaseline(*recovered, TableContentsCrc(dirty), base);
}

TEST(FaultSweepTest, RecoverWithoutAJournalIsAPlainRun) {
  Workload w = MakeWorkload(150);
  std::string journal = testing::TempDir() + "/never_written.journal";
  std::remove(journal.c_str());
  SessionOptions opt = SweepOptions(journal);
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Recover();
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->converged);
}

TEST(FaultSweepTest, RecoverRejectsAForeignJournal) {
  // A journal whose kStart doesn't match this session's seed or table
  // shape must be refused, not replayed into the wrong table.
  Workload w = MakeWorkload(150);
  std::string journal = testing::TempDir() + "/foreign.journal";
  SessionOptions opt = SweepOptions(journal);
  RunBaseline(w, opt);  // Leaves a completed journal for seed 1234.

  SessionOptions other = opt;
  other.seed = 4321;
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), other);
  auto m = session.Recover();
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FaultSweepTest, TransientOracleOutagesAreRetriedNotFatal) {
  // kUnavailable faults under the retry bound are absorbed by backoff: the
  // run completes with baseline-identical interaction counters.
  Workload w = MakeWorkload(120);
  std::string journal = testing::TempDir() + "/transient.journal";
  SessionOptions opt = SweepOptions(journal);
  Baseline base = RunBaseline(w, opt);

  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(
      {"oracle.answer", /*nth=*/2, /*count=*/2, StatusCode::kUnavailable});
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectMatchesBaseline(*m, TableContentsCrc(dirty), base);
}

TEST(FaultSweepTest, ExhaustedOracleRetriesSurfaceTheOutage) {
  // More consecutive transient failures than the retry bound: the episode
  // must abort with kUnavailable (and stay recoverable), never loop.
  Workload w = MakeWorkload(120);
  std::string journal = testing::TempDir() + "/outage.journal";
  SessionOptions opt = SweepOptions(journal);
  Baseline base = RunBaseline(w, opt);

  FaultInjector::Global().Reset();
  Table dirty = w.dirty.Clone();
  {
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), opt);
    FaultInjector::Global().Arm(
        {"oracle.answer", /*nth=*/3, /*count=*/16, StatusCode::kUnavailable});
    auto m = session.Run();
    FaultInjector::Global().Reset();
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kUnavailable);
  }
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto recovered = session.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectMatchesBaseline(*recovered, TableContentsCrc(dirty), base);
}

// ---------------------------------------------------------------------------
// Session-level rule retraction.

TEST(RetractionTest, RetractRestoresExactlyTheRulesCells) {
  Workload w = MakeWorkload(150);
  std::string journal = testing::TempDir() + "/retract_cells.journal";
  SessionOptions opt = SweepOptions(journal);
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_FALSE(session.log().empty());

  // The newest entry is always undoable; snapshot it and the table.
  size_t i = session.log().size() - 1;
  RepairLog::Entry entry = session.log().entries()[i];
  std::vector<std::vector<std::string>> snapshot(dirty.num_rows());
  for (size_t r = 0; r < dirty.num_rows(); ++r) {
    for (size_t c = 0; c < dirty.num_cols(); ++c) {
      snapshot[r].emplace_back(dirty.CellText(r, c));
    }
  }

  ASSERT_TRUE(session.RetractRule(i).ok());

  // Retracted cells hold their before-images; every other cell is
  // untouched.
  std::set<uint32_t> retracted_rows;
  for (const auto& [row, value] : entry.before) {
    retracted_rows.insert(row);
    EXPECT_EQ(dirty.CellText(row, entry.col),
              dirty.pool()->Get(value));
  }
  for (size_t r = 0; r < dirty.num_rows(); ++r) {
    for (size_t c = 0; c < dirty.num_cols(); ++c) {
      if (c == entry.col && retracted_rows.count(static_cast<uint32_t>(r))) {
        continue;
      }
      EXPECT_EQ(dirty.CellText(r, c), snapshot[r][c]);
    }
  }
  // The entry is gone from the log.
  EXPECT_EQ(session.log().size(), i);
}

TEST(RetractionTest, RetractThenContinueReconverges) {
  Workload w = MakeWorkload(150);
  std::string journal = testing::TempDir() + "/retract_continue.journal";
  SessionOptions opt = SweepOptions(journal);
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_TRUE(m->converged);
  ASSERT_FALSE(session.log().empty());

  // Find a non-manual (multi-cell rule) entry to retract if one exists,
  // else fall back to the newest entry.
  size_t target = session.log().size() - 1;
  for (size_t i = session.log().size(); i-- > 0;) {
    if (!session.log().entries()[i].manual &&
        session.log().CanUndo(i).ok()) {
      target = i;
      break;
    }
  }
  ASSERT_TRUE(session.RetractRule(target).ok());
  auto resumed = session.Continue();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->converged);
  EXPECT_EQ(dirty.CountDiffCells(w.clean), 0u);
  // The re-cleaning costs real interactions, never negative ones.
  EXPECT_GE(resumed->user_updates, m->user_updates);
  EXPECT_GE(resumed->user_answers, m->user_answers);
}

TEST(RetractionTest, OverlappingRetractionIsRefusedAndLeavesNoTrace) {
  // With wrong updates enabled some cell is repaired twice, giving two
  // overlapping log entries; retracting the older one must be refused and
  // leave table, log, and journal byte-identical.
  Workload w = MakeWorkload(200);
  std::string journal = testing::TempDir() + "/retract_refused.journal";
  SessionOptions opt = SweepOptions(journal);
  opt.update_mistake_prob = 0.4;
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  ASSERT_TRUE(m.ok()) << m.status();

  bool found = false;
  for (size_t i = 0; i < session.log().size(); ++i) {
    if (session.log().CanUndo(i).ok()) continue;
    found = true;
    uint32_t crc_before = TableContentsCrc(dirty);
    size_t log_before = session.log().size();
    auto journal_before = SessionJournal::Read(journal);
    ASSERT_TRUE(journal_before.ok());

    Status st = session.RetractRule(i);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(st.message().find("newest-first"), std::string::npos);

    EXPECT_EQ(TableContentsCrc(dirty), crc_before);
    EXPECT_EQ(session.log().size(), log_before);
    auto journal_after = SessionJournal::Read(journal);
    ASSERT_TRUE(journal_after.ok());
    EXPECT_EQ(journal_after->records.size(),
              journal_before->records.size());
    break;
  }
  ASSERT_TRUE(found) << "workload produced no overlapping repairs; "
                        "raise update_mistake_prob";
}

TEST(RetractionTest, CrashAfterRetractionReplaysTheRetraction) {
  // Reference: run → retract newest rule → continue to reconvergence.
  // Crash run: same, but die at the first episode after the retraction;
  // recovery must re-execute the journaled kRetract and land on the
  // reference outcome exactly.
  Workload w = MakeWorkload(150);
  SessionOptions ref_opt =
      SweepOptions(testing::TempDir() + "/retract_ref.journal");

  auto pick_target = [](const CleaningSession& s) {
    size_t target = s.log().size() - 1;
    for (size_t i = s.log().size(); i-- > 0;) {
      if (!s.log().entries()[i].manual && s.log().CanUndo(i).ok()) {
        return i;
      }
    }
    return target;
  };

  SessionMetrics ref_metrics;
  uint32_t ref_crc = 0;
  {
    Table dirty = w.dirty.Clone();
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), ref_opt);
    auto m = session.Run();
    ASSERT_TRUE(m.ok()) << m.status();
    ASSERT_FALSE(session.log().empty());
    ASSERT_TRUE(session.RetractRule(pick_target(session)).ok());
    auto resumed = session.Continue();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ref_metrics = *resumed;
    ref_crc = TableContentsCrc(dirty);
  }

  SessionOptions crash_opt =
      SweepOptions(testing::TempDir() + "/retract_crash.journal");
  Table dirty = w.dirty.Clone();
  {
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), crash_opt);
    auto m = session.Run();
    ASSERT_TRUE(m.ok()) << m.status();
    ASSERT_TRUE(session.RetractRule(pick_target(session)).ok());
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm(
        {"session.update", /*nth=*/1, /*count=*/1, StatusCode::kIoError});
    auto resumed = session.Continue();
    FaultInjector::Global().Reset();
    ASSERT_FALSE(resumed.ok());
  }
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), crash_opt);
  auto recovered = session.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->user_updates, ref_metrics.user_updates);
  EXPECT_EQ(recovered->user_answers, ref_metrics.user_answers);
  EXPECT_EQ(recovered->cells_repaired, ref_metrics.cells_repaired);
  EXPECT_EQ(recovered->queries_applied, ref_metrics.queries_applied);
  EXPECT_TRUE(recovered->converged);
  EXPECT_EQ(TableContentsCrc(dirty), ref_crc);
}

// ---------------------------------------------------------------------------
// Service-layer fault sites: the transport and journal-directory faults a
// daemon deployment adds on top of the in-process crash points above. Each
// injected fault must be absorbed by the resilient client's bounded
// reconnect/retry path, and the workload must still land on the
// uninterrupted run's exact final table.

constexpr double kServiceScale = 0.02;

uint32_t ServiceBaselineCrc(uint64_t seed) {
  auto w = MakeCleaningWorkload("Synth10k", kServiceScale);
  EXPECT_TRUE(w.ok());
  SessionOptions options;
  options.seed = seed;
  Table working = w->dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kCoDive);
  CleaningSession session(&w->clean, &working, algorithm.get(), options);
  auto metrics = session.Run();
  EXPECT_TRUE(metrics.ok());
  return TableContentsCrc(working);
}

std::string ServiceTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/falcon_service_faults_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(ServiceFaultSweepTest, ResilientWorkloadSurvivesTransportFaults) {
  const uint32_t want_crc = ServiceBaselineCrc(7);
  struct Case {
    const char* site;
    size_t nth;  // Chosen to land mid-workload (see comments below).
  };
  // accept:1 — the very first connection is dropped post-accept.
  // read:2   — the step request's bytes are consumed, then the connection
  //            dies before dispatch (request never executed; plain retry).
  // write:2  — the step *response* is torn after execution: the retry must
  //            be answered from the idempotency window, not re-applied.
  for (const Case& c : {Case{"service.accept", 1}, Case{"service.read", 2},
                        Case{"service.write", 2}}) {
    SCOPED_TRACE(c.site);
    FaultInjector::Global().Reset();
    ServerOptions options;
    options.unix_path = testing::TempDir() + "/falcon_fault_sweep_svc.sock";
    options.workers = 2;
    options.limits.journal_dir = ServiceTempDir("transport");
    CleaningServer server(options);
    ASSERT_TRUE(server.Start().ok());
    FaultInjector::Global().Arm(
        {c.site, c.nth, /*count=*/1, StatusCode::kIoError});

    ResilientClientOptions copts;
    copts.unix_path = options.unix_path;
    copts.deadline_ms = 10000;
    ResilientClient client(copts);
    SessionManager::OpenParams params;
    params.dataset = "Synth10k";
    params.scale = kServiceScale;
    params.seed = 7;
    auto opened = client.OpenSession(params);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    uint32_t crc = 0;
    for (int i = 0; i < 10000; ++i) {
      auto st = client.Step(1);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      if (st->GetBool("finished")) {
        crc = static_cast<uint32_t>(st->GetInt("table_crc"));
        break;
      }
    }
    FaultInjector::Global().Reset();
    EXPECT_EQ(crc, want_crc);
    // The fault actually bit: the client needed more than the one happy
    // connect to finish.
    EXPECT_GE(client.stats().connects, 2u);
    ASSERT_TRUE(client.CloseSession().ok());
    server.Stop();
    server.Wait();
  }
}

TEST(ServiceFaultSweepTest, InjectedStallGetsTypedDeadline) {
  // service.stall simulates a client that goes quiet mid-line: the
  // server's per-line deadline fires (immediately, via injection) and the
  // connection gets the typed DEADLINE_EXCEEDED eviction — no real
  // waiting, unlike the wall-clock slowloris test in service_test.
  FaultInjector::Global().Reset();
  ServerOptions options;
  options.unix_path = testing::TempDir() + "/falcon_fault_sweep_stall.sock";
  options.workers = 1;
  options.read_deadline_ms = 60000;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  FaultInjector::Global().Arm(
      {"service.stall", /*nth=*/1, /*count=*/1, StatusCode::kIoError});

  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  const char partial[] = "{\"verb\":\"pi";  // No newline: a torn line.
  ASSERT_GT(::send(conn->fd(), partial, sizeof partial - 1, 0), 0);
  LineChannel channel(std::move(conn).value());
  channel.set_read_deadline(10000, /*from_first_byte=*/false);
  std::string line;
  bool eof = false;
  Status read = channel.ReadLine(&line, &eof);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(read.ok()) << read.ToString();
  ASSERT_FALSE(eof);
  auto resp = JsonValue::Parse(line);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->GetBool("ok"));
  EXPECT_EQ(resp->GetString("code"), "DEADLINE_EXCEEDED");

  server.Stop();
  server.Wait();
}

TEST(ServiceFaultSweepTest, JournalDirSyncFaultFailsOpenWithoutOrphans) {
  FaultInjector::Global().Reset();
  ServiceLimits limits;
  limits.journal_dir = ServiceTempDir("dirsync");
  SessionManager manager(limits);
  SessionManager::OpenParams params;
  params.dataset = "Synth10k";
  params.scale = kServiceScale;
  params.seed = 7;

  FaultInjector::Global().Arm({"service.journal_dir_sync", /*nth=*/1,
                               /*count=*/1, StatusCode::kIoError});
  auto opened = manager.Open(params);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  // The half-durable meta was rolled back: nothing for a future startup
  // scan to mistake for a recoverable session.
  struct stat st;
  EXPECT_NE(::stat((limits.journal_dir + "/s-1.meta").c_str(), &st), 0);

  // The injector disarmed, the same open succeeds.
  auto retry = manager.Open(params);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace falcon
