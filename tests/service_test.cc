// Service-layer tests: SessionManager operations and isolation, protocol
// dispatch via HandleRequest (no sockets), socket round-trips against a
// real CleaningServer, and the admission-control / overload policy.
#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "datagen/workload.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_manager.h"

namespace falcon {
namespace {

// Small enough to converge in well under a second per session.
constexpr double kScale = 0.02;

SessionManager::OpenParams SmallParams(uint64_t seed = 7) {
  SessionManager::OpenParams p;
  p.dataset = "Synth10k";
  p.scale = kScale;
  p.seed = seed;
  return p;
}

// Serial ground truth with the same options the manager builds.
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

TEST(SessionManagerTest, OpenStepCloseMatchesSerialRun) {
  Baseline want = SerialBaseline(7);

  SessionManager manager(ServiceLimits{});
  auto id = manager.Open(SmallParams(7));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Step one episode at a time — the interactive cadence.
  SessionStatus st;
  for (int i = 0; i < 10000; ++i) {
    auto step = manager.Step(*id, 1);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    st = *step;
    if (st.finished) break;
  }
  EXPECT_TRUE(st.finished);
  EXPECT_TRUE(st.metrics.converged);
  EXPECT_EQ(st.metrics.user_updates, want.metrics.user_updates);
  EXPECT_EQ(st.metrics.user_answers, want.metrics.user_answers);
  EXPECT_EQ(st.metrics.cells_repaired, want.metrics.cells_repaired);
  EXPECT_EQ(st.metrics.queries_applied, want.metrics.queries_applied);
  EXPECT_EQ(st.table_crc, want.crc);

  EXPECT_TRUE(manager.Close(*id).ok());
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.Close(*id).code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, SharedBaseStaysCleanWhileSessionsWrite) {
  SessionManager manager(ServiceLimits{});
  auto a = manager.Open(SmallParams(1));
  auto b = manager.Open(SmallParams(2));
  ASSERT_TRUE(a.ok() && b.ok());

  auto before = manager.Info(*a);
  ASSERT_TRUE(before.ok());
  uint32_t dirty_crc = before->table_crc;

  // Run session a to the end; session b's COW snapshot must still see the
  // untouched dirty base.
  ASSERT_TRUE(manager.Step(*a, 0).ok());
  auto b_view = manager.Info(*b);
  ASSERT_TRUE(b_view.ok());
  EXPECT_EQ(b_view->table_crc, dirty_crc);

  auto a_done = manager.Info(*a);
  ASSERT_TRUE(a_done.ok());
  EXPECT_NE(a_done->table_crc, dirty_crc);
  EXPECT_TRUE(a_done->metrics.converged);
}

TEST(SessionManagerTest, AdmissionControlRejectsBeyondMaxSessions) {
  ServiceLimits limits;
  limits.max_sessions = 2;
  SessionManager manager(limits);
  auto a = manager.Open(SmallParams(1));
  auto b = manager.Open(SmallParams(2));
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = manager.Open(SmallParams(3));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  // A close frees the slot.
  ASSERT_TRUE(manager.Close(*a).ok());
  EXPECT_TRUE(manager.Open(SmallParams(3)).ok());
}

TEST(SessionManagerTest, ExternalUpdatesAndAnswersDriveTheSession) {
  auto w = MakeCleaningWorkload("Synth10k", kScale);
  ASSERT_TRUE(w.ok());
  // Find one dirty cell and its clean text.
  uint32_t row = 0, col = 0;
  std::string clean_text;
  bool found = false;
  for (size_t r = 0; r < w->clean.num_rows() && !found; ++r) {
    for (size_t c = 0; c < w->clean.num_cols() && !found; ++c) {
      if (w->dirty.cell(r, c) != w->clean.cell(r, c)) {
        row = static_cast<uint32_t>(r);
        col = static_cast<uint32_t>(c);
        clean_text = std::string(w->clean.CellText(r, c));
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  SessionManager manager(ServiceLimits{});
  auto id = manager.Open(SmallParams(9));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.UpdateCell(*id, row, col, clean_text).ok());
  // Client-supplied verdicts for the questions the first episode asks.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.Answer(*id, false).ok());
  }
  auto st = manager.Step(*id, 1);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->metrics.user_updates, 1u);
  EXPECT_GE(st->metrics.cells_repaired, 1u);

  // Out-of-range updates are rejected.
  EXPECT_EQ(manager.UpdateCell(*id, 1u << 30, 0, "x").status().code(),
            StatusCode::kOutOfRange);
}

TEST(SessionManagerTest, RetractReopensSessionAndReconverges) {
  SessionManager manager(ServiceLimits{});
  auto id = manager.Open(SmallParams(7));
  ASSERT_TRUE(id.ok());
  auto done = manager.Step(*id, 0);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->finished);
  ASSERT_GT(done->repairs, 0u);
  uint32_t clean_crc = done->table_crc;

  // Retracting an out-of-range entry fails cleanly.
  EXPECT_FALSE(manager.Retract(*id, done->repairs).ok());

  // Retract the newest applied repair: the session re-opens (finished
  // drops) and stepping again re-converges to the same final table.
  ASSERT_TRUE(manager.Retract(*id, done->repairs - 1).ok());
  auto reopened = manager.Info(*id);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened->finished);
  auto redone = manager.Step(*id, 0);
  ASSERT_TRUE(redone.ok()) << redone.status().ToString();
  EXPECT_TRUE(redone->finished);
  EXPECT_TRUE(redone->metrics.converged);
  EXPECT_EQ(redone->table_crc, clean_crc);
}

TEST(ProtocolTest, DispatchesVerbsAndReportsErrors) {
  SessionManager manager(ServiceLimits{});

  // Unknown verb.
  auto bad = JsonValue::Parse("{\"verb\":\"nope\"}");
  ASSERT_TRUE(bad.ok());
  JsonValue r = HandleRequest(manager, *bad);
  EXPECT_FALSE(r.GetBool("ok"));
  EXPECT_EQ(r.GetString("code"), "INVALID_ARGUMENT");

  // Missing session id.
  auto missing = JsonValue::Parse("{\"verb\":\"step\"}");
  r = HandleRequest(manager, *missing);
  EXPECT_FALSE(r.GetBool("ok"));

  // Unknown session.
  auto ghost = JsonValue::Parse("{\"verb\":\"status\",\"session\":\"s-99\"}");
  r = HandleRequest(manager, *ghost);
  EXPECT_FALSE(r.GetBool("ok"));
  EXPECT_EQ(r.GetString("code"), "NOT_FOUND");

  // Full open → step → status → close cycle through the dispatcher.
  JsonValue open = JsonValue::Object();
  open.Set("verb", "open_session");
  open.Set("dataset", "Synth10k");
  open.Set("scale", kScale);
  open.Set("seed", 7);
  r = HandleRequest(manager, open);
  ASSERT_TRUE(r.GetBool("ok")) << r.Serialize();
  std::string id = r.GetString("session");
  EXPECT_FALSE(id.empty());

  JsonValue step = JsonValue::Object();
  step.Set("verb", "step");
  step.Set("session", id);
  step.Set("episodes", 0);
  r = HandleRequest(manager, step);
  ASSERT_TRUE(r.GetBool("ok")) << r.Serialize();
  EXPECT_TRUE(r.GetBool("finished"));
  const JsonValue* metrics = r.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->GetBool("converged"));
  EXPECT_GT(r.GetInt("table_crc"), 0);

  JsonValue close = JsonValue::Object();
  close.Set("verb", "close");
  close.Set("session", id);
  EXPECT_TRUE(HandleRequest(manager, close).GetBool("ok"));
  EXPECT_FALSE(HandleRequest(manager, close).GetBool("ok"));
}

// A scale that is not a finite, positive row multiplier within the row cap
// is refused at the boundary, promptly and before any base is built: cast
// to a row count, -5 and 1e300 are undefined behaviour.
TEST(ProtocolTest, OpenSessionRejectsOutOfRangeScale) {
  SessionManager manager(ServiceLimits{});
  for (double scale : {-5.0, 0.0, 1e300}) {
    SCOPED_TRACE(scale);
    JsonValue open = JsonValue::Object();
    open.Set("verb", "open_session");
    open.Set("dataset", "Synth10k");
    open.Set("scale", scale);
    auto t0 = std::chrono::steady_clock::now();
    JsonValue r = HandleRequest(manager, open);
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(r.GetBool("ok")) << r.Serialize();
    EXPECT_EQ(r.GetString("code"), "INVALID_ARGUMENT");
    EXPECT_LT(elapsed, std::chrono::seconds(1));
  }
  EXPECT_EQ(manager.cached_bases(), 0u);
  EXPECT_EQ(manager.active_sessions(), 0u);
}

// Every distinct scale builds its own base; enumerating scales must not
// grow the cache without bound, and a base with a live session must never
// be evicted. NextWorkloadSnapshotId() counts workload builds: a reopen
// served from the cache builds nothing.
TEST(SessionManagerTest, IdleBasesAreEvictedLiveBasesKept) {
  SessionManager manager(ServiceLimits{});
  auto pinned = manager.Open(SmallParams(7));  // Stays open throughout.
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  for (int i = 1; i <= 20; ++i) {
    SessionManager::OpenParams p = SmallParams(7);
    p.scale = kScale + 0.001 * i;
    auto id = manager.Open(p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(manager.Step(*id, 1).ok());
    ASSERT_TRUE(manager.Close(*id).ok());
    EXPECT_LE(manager.cached_bases(), SessionManager::kMaxCachedBases);
  }

  auto builds_for_open = [&](const SessionManager::OpenParams& p) {
    uint64_t before = NextWorkloadSnapshotId();
    auto id = manager.Open(p);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    uint64_t built = NextWorkloadSnapshotId() - before - 1;
    if (id.ok()) {
      EXPECT_TRUE(manager.Close(*id).ok());
    }
    return built;
  };
  // The live session's base was kept through all 20 evictions...
  EXPECT_EQ(builds_for_open(SmallParams(8)), 0u);
  // ...as was the most recently closed idle base, while the oldest idle
  // one was evicted and is rebuilt.
  SessionManager::OpenParams newest = SmallParams(7);
  newest.scale = kScale + 0.001 * 20;
  EXPECT_EQ(builds_for_open(newest), 0u);
  SessionManager::OpenParams oldest = SmallParams(7);
  oldest.scale = kScale + 0.001;
  EXPECT_EQ(builds_for_open(oldest), 1u);
  EXPECT_LE(manager.cached_bases(), SessionManager::kMaxCachedBases);

  auto step = manager.Step(*pinned, 0);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_TRUE(step->finished);
  EXPECT_TRUE(manager.Close(*pinned).ok());
}

TEST(ServerTest, SocketRoundTripOverUnixSocket) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_service_test.sock";
  options.workers = 2;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::ConnectToUnix(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  JsonValue open = JsonValue::Object();
  open.Set("verb", "open_session");
  open.Set("dataset", "Synth10k");
  open.Set("scale", kScale);
  open.Set("seed", 7);
  auto r = client->CallChecked(open);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string id = r->GetString("session");

  JsonValue step = JsonValue::Object();
  step.Set("verb", "step");
  step.Set("session", id);
  step.Set("episodes", 0);
  r = client->CallChecked(step);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->GetBool("finished"));

  // Malformed JSON gets an error response, not a dropped connection.
  JsonValue status_req = JsonValue::Object();
  status_req.Set("verb", "status");
  status_req.Set("session", id);
  auto still_ok = client->Call(status_req);
  ASSERT_TRUE(still_ok.ok());
  EXPECT_TRUE(still_ok->GetBool("ok"));

  // Remote shutdown is refused without the opt-in flag.
  JsonValue shutdown = JsonValue::Object();
  shutdown.Set("verb", "shutdown");
  auto refused = client->Call(shutdown);
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->GetBool("ok"));

  server.Stop();
  server.Wait();
}

TEST(ServerTest, TcpListenerBindsEphemeralPort) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.bound_port(), 0);

  auto client = ServiceClient::ConnectToTcp(server.bound_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  JsonValue ghost = JsonValue::Object();
  ghost.Set("verb", "status");
  ghost.Set("session", "s-1");
  auto r = client->Call(ghost);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetString("code"), "NOT_FOUND");

  server.Stop();
  server.Wait();
}

TEST(ServerTest, OverloadedQueueRejectsWithRetryAfter) {
  // queue_limit=0: every submitted request is an overload rejection, which
  // proves the reader-side rejection path without a timing race.
  ServerOptions options;
  options.unix_path = "/tmp/falcon_service_overload_test.sock";
  options.workers = 1;
  options.queue_limit = 0;
  options.retry_after_ms = 25;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::ConnectToUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  JsonValue req = JsonValue::Object();
  req.Set("verb", "status");
  req.Set("session", "s-1");
  auto r = client->Call(req);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->GetBool("ok"));
  EXPECT_EQ(r->GetString("code"), "UNAVAILABLE");
  EXPECT_EQ(r->GetInt("retry_after_ms"), 25);

  server.Stop();
  server.Wait();
}

TEST(SessionManagerTest, IdempotentSeqWindowCachesAndRejects) {
  SessionManager manager(ServiceLimits{});
  auto id = manager.Open(SmallParams(7));
  ASSERT_TRUE(id.ok());

  // seq 1 executes one episode.
  auto first = manager.Step(*id, 1, /*seq=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->last_seq, 1u);

  // A retry of seq 1 is served from the cache: identical snapshot, and
  // provably not re-executed (same episode counters, same CRC).
  auto retry = manager.Step(*id, 1, /*seq=*/1);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->table_crc, first->table_crc);
  EXPECT_EQ(retry->metrics.user_updates, first->metrics.user_updates);
  EXPECT_EQ(retry->metrics.user_answers, first->metrics.user_answers);
  EXPECT_EQ(retry->repairs, first->repairs);

  // A gapped seq is rejected without executing.
  auto gap = manager.Step(*id, 1, /*seq=*/5);
  EXPECT_EQ(gap.status().code(), StatusCode::kFailedPrecondition);

  // seq 2 advances; after the window slides past a seq it reports
  // kFailedPrecondition instead of silently re-applying.
  auto second = manager.Step(*id, 1, /*seq=*/2);
  ASSERT_TRUE(second.ok());
  for (uint64_t s = 3; s <= 40; ++s) {
    auto st = manager.Info(*id);
    ASSERT_TRUE(st.ok());
    if (st->finished) break;
    ASSERT_TRUE(manager.Step(*id, 1, s).ok());
  }
  auto evicted = manager.Step(*id, 1, /*seq=*/1);
  // seq 1 may still be cached if the run converged early; when it is not,
  // the typed "too old" error comes back.
  if (!evicted.ok()) {
    EXPECT_EQ(evicted.status().code(), StatusCode::kFailedPrecondition);
  }

  // Cached errors replay too: an invalid retract is cached under its seq.
  auto info = manager.Info(*id);
  ASSERT_TRUE(info.ok());
  uint64_t next = info->last_seq + 1;
  auto bad = manager.Retract(*id, 1u << 20, next);
  ASSERT_FALSE(bad.ok());
  auto bad_retry = manager.Retract(*id, 1u << 20, next);
  EXPECT_EQ(bad_retry.status().code(), bad.status().code());
}

TEST(ServerTest, SlowlorisConnectionEvictedWithTypedError) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_service_slowloris_test.sock";
  options.workers = 1;
  options.read_deadline_ms = 200;  // Short so the test is fast.
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A half-sent line (no newline) must trip the per-line deadline and get
  // the typed eviction error...
  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  const char partial[] = "{\"verb\":\"ping\"";  // No trailing newline.
  ASSERT_GT(::send(conn->fd(), partial, sizeof partial - 1, 0), 0);
  LineChannel channel(std::move(conn).value());
  std::string line;
  bool eof = false;
  channel.set_read_deadline(5000, /*from_first_byte=*/false);
  Status read = channel.ReadLine(&line, &eof);
  ASSERT_TRUE(read.ok()) << read.ToString();
  ASSERT_FALSE(eof);
  auto resp = JsonValue::Parse(line);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->GetBool("ok"));
  EXPECT_EQ(resp->GetString("code"), "DEADLINE_EXCEEDED");

  // ...while an idle connection (no partial line) stays connected well
  // past the deadline and still gets served.
  auto idle = ServiceClient::ConnectToUnix(options.unix_path);
  ASSERT_TRUE(idle.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  JsonValue ping = JsonValue::Object();
  ping.Set("verb", "ping");
  auto pong = idle->CallChecked(ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_GE(pong->GetInt("max_sessions"), 1);

  server.Stop();
  server.Wait();
}

TEST(ServerTest, PingReportsHealth) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_service_ping_test.sock";
  options.workers = 1;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::ConnectToUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  JsonValue ping = JsonValue::Object();
  ping.Set("verb", "ping");
  auto r = client->CallChecked(ping);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetInt("live_sessions"), 0);
  EXPECT_GT(r->GetInt("max_sessions"), 0);
  EXPECT_EQ(r->GetInt("recovered_sessions"), 0);
  EXPECT_GE(r->GetDouble("uptime_s"), 0.0);

  JsonValue open = JsonValue::Object();
  open.Set("verb", "open_session");
  open.Set("dataset", "Synth10k");
  open.Set("scale", kScale);
  open.Set("seed", 7);
  auto opened = client->CallChecked(open);
  ASSERT_TRUE(opened.ok());
  r = client->CallChecked(ping);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetInt("live_sessions"), 1);

  server.Stop();
  server.Wait();
}

TEST(ServerTest, ConcurrentClientsOnDistinctSessions) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_service_mt_test.sock";
  options.workers = 4;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<uint32_t> crcs(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = ServiceClient::ConnectToUnix(options.unix_path);
      ASSERT_TRUE(client.ok());
      JsonValue open = JsonValue::Object();
      open.Set("verb", "open_session");
      open.Set("dataset", "Synth10k");
      open.Set("scale", kScale);
      open.Set("seed", 7);  // Same seed: all runs must agree exactly.
      auto r = client->CallChecked(open);
      ASSERT_TRUE(r.ok());
      std::string id = r->GetString("session");
      JsonValue step = JsonValue::Object();
      step.Set("verb", "step");
      step.Set("session", id);
      step.Set("episodes", 0);
      r = client->CallChecked(step);
      ASSERT_TRUE(r.ok());
      crcs[i] = static_cast<uint32_t>(r->GetInt("table_crc"));
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(crcs[i], crcs[0]);

  server.Stop();
  server.Wait();
}

}  // namespace
}  // namespace falcon
