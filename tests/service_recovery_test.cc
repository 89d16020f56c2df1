// Crash-recovery tests for the service layer: daemon restart recovery
// (journal + meta scan, RNG-aligned replay, bit-identical resumption),
// journal/meta lifecycle (delete on clean close, retain on graceful
// shutdown/eviction, stale-journal cleanup), torn-tail recovery, the
// idempotent seq window's no-double-apply guarantee, and the
// `open_session {"resume"}` verb across a server restart.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/session.h"
#include "datagen/workload.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/resilient_client.h"
#include "service/server.h"
#include "service/session_manager.h"

namespace falcon {
namespace {

constexpr double kScale = 0.02;

SessionManager::OpenParams SmallParams(uint64_t seed = 7) {
  SessionManager::OpenParams p;
  p.dataset = "Synth10k";
  p.scale = kScale;
  p.seed = seed;
  return p;
}

/// Fresh empty journal directory under /tmp, unique per test + process.
std::string TempJournalDir(const std::string& name) {
  std::string dir = "/tmp/falcon_recovery_" + name + "_" +
                    std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string n = e->d_name;
      if (n != "." && n != "..") ::unlink((dir + "/" + n).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

struct Baseline {
  SessionMetrics metrics;
  uint32_t crc = 0;
};

Baseline SerialBaseline(uint64_t seed) {
  auto w = MakeCleaningWorkload("Synth10k", kScale);
  EXPECT_TRUE(w.ok());
  SessionOptions options;
  options.seed = seed;
  Table working = w->dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kCoDive);
  CleaningSession session(&w->clean, &working, algorithm.get(), options);
  auto metrics = session.Run();
  EXPECT_TRUE(metrics.ok());
  return Baseline{*metrics, TableContentsCrc(working)};
}

TEST(ServiceRecoveryTest, RestartRecoveryIsBitIdentical) {
  const std::string dir = TempJournalDir("restart");
  ServiceLimits limits;
  limits.journal_dir = dir;

  std::string id;
  uint32_t mid_crc = 0;
  SessionMetrics mid_metrics;
  {
    SessionManager manager(limits);
    auto opened = manager.Open(SmallParams(7));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    id = *opened;
    auto s1 = manager.Step(id, 1);
    ASSERT_TRUE(s1.ok());
    auto s2 = manager.Step(id, 1);
    ASSERT_TRUE(s2.ok());
    mid_crc = s2->table_crc;
    mid_metrics = s2->metrics;
    // Graceful shutdown retains journal + meta (the destructor's CloseAll
    // path — exactly what a daemon restart sees).
  }
  ASSERT_TRUE(FileExists(dir + "/" + id + ".journal"));
  ASSERT_TRUE(FileExists(dir + "/" + id + ".meta"));

  SessionManager recovered(limits);
  EXPECT_EQ(recovered.RecoverSessions(), 1u);
  EXPECT_EQ(recovered.active_sessions(), 1u);
  EXPECT_EQ(recovered.Health().recovered_sessions, 1u);

  // The replayed session lands exactly where the first incarnation
  // stopped: same table, same interaction counters.
  auto info = recovered.Info(id);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->table_crc, mid_crc);
  EXPECT_EQ(info->metrics.user_updates, mid_metrics.user_updates);
  EXPECT_EQ(info->metrics.user_answers, mid_metrics.user_answers);
  EXPECT_EQ(info->metrics.cells_repaired, mid_metrics.cells_repaired);

  // Stepping to convergence matches an uninterrupted serial run bit for
  // bit.
  Baseline want = SerialBaseline(7);
  auto done = recovered.Step(id, 0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->finished);
  EXPECT_EQ(done->table_crc, want.crc);
  EXPECT_EQ(done->metrics.user_updates, want.metrics.user_updates);
  EXPECT_EQ(done->metrics.user_answers, want.metrics.user_answers);
  EXPECT_EQ(done->metrics.cells_repaired, want.metrics.cells_repaired);
  EXPECT_EQ(done->metrics.queries_applied, want.metrics.queries_applied);

  // New ids continue past the recovered one instead of colliding.
  auto fresh = recovered.Open(SmallParams(8));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, id);
}

TEST(ServiceRecoveryTest, TornJournalTailReplaysToLastCompleteRecord) {
  const std::string dir = TempJournalDir("torn");
  ServiceLimits limits;
  limits.journal_dir = dir;
  std::string id;
  {
    SessionManager manager(limits);
    auto opened = manager.Open(SmallParams(11));
    ASSERT_TRUE(opened.ok());
    id = *opened;
    ASSERT_TRUE(manager.Step(id, 1).ok());
    ASSERT_TRUE(manager.Step(id, 1).ok());
  }
  // Tear the tail mid-record, as a crash during a journal write would.
  const std::string journal = dir + "/" + id + ".journal";
  int64_t size = FileSize(journal);
  ASSERT_GT(size, 8);
  ASSERT_EQ(::truncate(journal.c_str(), size - 7), 0);

  SessionManager recovered(limits);
  ASSERT_EQ(recovered.RecoverSessions(), 1u);
  // The tolerant reader dropped the torn record, replay completed any
  // interrupted episode, and the session still converges to the
  // uninterrupted run's exact table.
  Baseline want = SerialBaseline(11);
  auto done = recovered.Step(id, 0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->finished);
  EXPECT_EQ(done->table_crc, want.crc);
  EXPECT_EQ(done->metrics.user_updates, want.metrics.user_updates);
  EXPECT_EQ(done->metrics.user_answers, want.metrics.user_answers);
}

// Opens a session with `seed`, runs one episode, and leaves its journal and
// meta behind (graceful shutdown). Returns the session id.
std::string LeaveSteppedSession(const ServiceLimits& limits, uint64_t seed) {
  SessionManager manager(limits);
  auto opened = manager.Open(SmallParams(seed));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return "";
  EXPECT_TRUE(manager.Step(*opened, 1).ok());
  return *opened;
}

// Rewrites one field of the meta sidecar of session `id`.
void RewriteMetaField(const std::string& dir, const std::string& id,
                      const std::string& key, const JsonValue& value) {
  const std::string path = dir + "/" + id + ".meta";
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto meta = JsonValue::Parse(body);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  meta->Set(key, value);
  std::ofstream(path, std::ios::trunc) << meta->Serialize() << "\n";
}

// Metas written by older versions carry a "posting_delta" field, which
// no longer selects anything: the decoder ignores it, whatever its value,
// and the session ends bit-identical to the serial run.
TEST(ServiceRecoveryTest, MetaWithRetiredPostingDeltaFieldRecovers) {
  const std::string dir = TempJournalDir("retired_field");
  ServiceLimits limits;
  limits.journal_dir = dir;
  const std::string id = LeaveSteppedSession(limits, 13);
  ASSERT_FALSE(id.empty());
  RewriteMetaField(dir, id, "posting_delta", JsonValue(false));

  SessionManager recovered(limits);
  ASSERT_EQ(recovered.RecoverSessions(), 1u);
  Baseline want = SerialBaseline(13);
  auto done = recovered.Step(id, 0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->finished);
  EXPECT_EQ(done->table_crc, want.crc);
  EXPECT_EQ(done->metrics.user_updates, want.metrics.user_updates);
  EXPECT_EQ(done->metrics.user_answers, want.metrics.user_answers);
  EXPECT_EQ(done->metrics.cells_repaired, want.metrics.cells_repaired);
}

// A meta decodes through open_session's checks: a negative seed is not
// wrapped to 2^64 - 3 and a fractional budget is not truncated. The
// startup scan skips such a session and keeps its files; an explicit
// resume reports why.
TEST(ServiceRecoveryTest, MetaWithBadNumbersIsRefusedAndRetained) {
  const std::pair<const char*, JsonValue> bad[] = {{"seed", JsonValue(-3)},
                                                   {"budget", JsonValue(2.5)}};
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key);
    const std::string dir = TempJournalDir(std::string("bad_") + key);
    ServiceLimits limits;
    limits.journal_dir = dir;
    const std::string id = LeaveSteppedSession(limits, 17);
    ASSERT_FALSE(id.empty());
    RewriteMetaField(dir, id, key, value);

    SessionManager recovered(limits);
    EXPECT_EQ(recovered.RecoverSessions(), 0u);
    EXPECT_EQ(recovered.active_sessions(), 0u);
    EXPECT_TRUE(FileExists(dir + "/" + id + ".journal"));
    EXPECT_TRUE(FileExists(dir + "/" + id + ".meta"));
    auto resumed = recovered.Resume(id);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resumed.status().message().find(key), std::string::npos)
        << resumed.status().ToString();
  }
}

TEST(ServiceRecoveryTest, JournalLifecycleDeleteOnCloseRetainOnShutdown) {
  const std::string dir = TempJournalDir("lifecycle");
  ServiceLimits limits;
  limits.journal_dir = dir;

  // A cleanly closed session leaves nothing behind.
  {
    SessionManager manager(limits);
    auto a = manager.Open(SmallParams(3));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(manager.Step(*a, 1).ok());
    ASSERT_TRUE(FileExists(dir + "/" + *a + ".journal"));
    ASSERT_TRUE(FileExists(dir + "/" + *a + ".meta"));
    ASSERT_TRUE(manager.Close(*a).ok());
    EXPECT_FALSE(FileExists(dir + "/" + *a + ".journal"));
    EXPECT_FALSE(FileExists(dir + "/" + *a + ".meta"));

    // A session alive at shutdown keeps both files.
    auto b = manager.Open(SmallParams(4));
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(manager.Step(*b, 1).ok());
  }
  // Plant a stale journal with no meta sidecar: the startup scan must
  // delete it and not register a session for it.
  {
    std::ofstream stale(dir + "/s-99.journal");
    stale << "stale bytes";
  }
  SessionManager recovered(limits);
  EXPECT_EQ(recovered.RecoverSessions(), 1u);
  EXPECT_EQ(recovered.active_sessions(), 1u);
  EXPECT_FALSE(FileExists(dir + "/s-99.journal"));
}

TEST(ServiceRecoveryTest, MetaWithoutJournalRegistersFresh) {
  const std::string dir = TempJournalDir("metaonly");
  ServiceLimits limits;
  limits.journal_dir = dir;
  std::string id;
  {
    SessionManager manager(limits);
    auto opened = manager.Open(SmallParams(5));
    ASSERT_TRUE(opened.ok());
    id = *opened;
    // Never stepped: the journal file does not exist yet.
    ASSERT_FALSE(FileExists(dir + "/" + id + ".journal"));
    ASSERT_TRUE(FileExists(dir + "/" + id + ".meta"));
  }
  SessionManager recovered(limits);
  EXPECT_EQ(recovered.RecoverSessions(), 1u);
  Baseline want = SerialBaseline(5);
  auto done = recovered.Step(id, 0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->table_crc, want.crc);
}

TEST(ServiceRecoveryTest, SeqRetryDoesNotDoubleApply) {
  const std::string dir = TempJournalDir("seqretry");
  ServiceLimits limits;
  limits.journal_dir = dir;
  SessionManager manager(limits);
  auto id = manager.Open(SmallParams(7));
  ASSERT_TRUE(id.ok());

  auto first = manager.Step(*id, 1, /*seq=*/1);
  ASSERT_TRUE(first.ok());
  const std::string journal = dir + "/" + *id + ".journal";
  const int64_t after_first = FileSize(journal);
  ASSERT_GT(after_first, 0);

  // The retried request returns the cached response and appends nothing
  // to the journal — the episode provably did not run twice.
  auto retry = manager.Step(*id, 1, /*seq=*/1);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->table_crc, first->table_crc);
  EXPECT_EQ(FileSize(journal), after_first);

  // The next seq executes and the journal grows again.
  auto second = manager.Step(*id, 1, /*seq=*/2);
  ASSERT_TRUE(second.ok());
  if (!second->finished || second->metrics.queries_applied >
                               first->metrics.queries_applied) {
    EXPECT_GT(FileSize(journal), after_first);
  }
}

TEST(ServiceRecoveryTest, EvictedSessionResumesLazilyFromDisk) {
  const std::string dir = TempJournalDir("evict");
  ServiceLimits limits;
  limits.journal_dir = dir;
  limits.idle_timeout_s = 0.001;
  SessionManager manager(limits);
  auto id = manager.Open(SmallParams(7));
  ASSERT_TRUE(id.ok());
  auto mid = manager.Step(*id, 1);
  ASSERT_TRUE(mid.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(manager.EvictIdle(), 1u);
  ASSERT_EQ(manager.active_sessions(), 0u);
  // Artifacts retained: the session is resumable.
  ASSERT_TRUE(FileExists(dir + "/" + *id + ".journal"));

  auto resumed = manager.Resume(*id);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto info = manager.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->table_crc, mid->table_crc);

  Baseline want = SerialBaseline(7);
  auto done = manager.Step(*id, 0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->table_crc, want.crc);
}

TEST(ServiceRecoveryTest, ResumeVerbAcrossServerRestart) {
  const std::string dir = TempJournalDir("server");
  ServerOptions options;
  options.unix_path = "/tmp/falcon_recovery_server_test.sock";
  options.workers = 2;
  options.limits.journal_dir = dir;

  std::string id;
  uint32_t mid_crc = 0;
  {
    CleaningServer server(options);
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::ConnectToUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    JsonValue open = JsonValue::Object();
    open.Set("verb", "open_session");
    open.Set("dataset", "Synth10k");
    open.Set("scale", kScale);
    open.Set("seed", 7);
    auto r = client->CallChecked(open);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    id = r->GetString("session");
    JsonValue step = JsonValue::Object();
    step.Set("verb", "step");
    step.Set("session", id);
    step.Set("episodes", 1);
    step.Set("seq", 1);
    r = client->CallChecked(step);
    ASSERT_TRUE(r.ok());
    mid_crc = static_cast<uint32_t>(r->GetInt("table_crc"));
    server.Stop();
    server.Wait();
  }

  CleaningServer restarted(options);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.recovered_sessions(), 1u);

  // The resilient client resumes the session by id and drives it to the
  // uninterrupted run's exact final table.
  ResilientClientOptions copts;
  copts.unix_path = options.unix_path;
  ASSERT_TRUE(ResilientClient(copts).Ping().ok());
  ResilientClient client(copts);
  ASSERT_TRUE(client.ResumeSession(id).ok());
  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(static_cast<uint32_t>(info->GetInt("table_crc")), mid_crc);
  // The in-memory seq window reset with the restart; the resume response
  // re-synced us, so seq-stamped stepping keeps working.
  Baseline want = SerialBaseline(7);
  for (int i = 0; i < 10000; ++i) {
    auto st = client.Step(1);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    if (st->GetBool("finished")) {
      EXPECT_EQ(static_cast<uint32_t>(st->GetInt("table_crc")), want.crc);
      break;
    }
  }

  // Ping reports the recovery.
  auto pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->GetInt("recovered_sessions"), 1);

  restarted.Stop();
  restarted.Wait();
}

}  // namespace
}  // namespace falcon
