// Lock-striped session-registry tests: concurrent open/step/close across
// shards, admission control under racing opens (the atomic reservation
// must never admit past max_sessions), Health() consistency while the
// registry churns (counts never negative, never double-counted), journal
// recovery re-registering sessions across shards, and shared-base
// lifetime when the sessions pinning a base live in different shards.
// These run under TSan in CI (see .github/workflows/ci.yml).
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "datagen/workload.h"
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
std::string MakeTempDir(const std::string& tag) {
  std::string dir =
      "/tmp/falcon_shard_" + tag + "_" + std::to_string(::getpid());
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

TEST(SessionShardTest, ConcurrentOpenStepCloseAcrossShards) {
  ServiceLimits limits;
  limits.max_sessions = 64;
  limits.session_shards = 4;  // Fewer shards than threads: forced sharing.
  SessionManager manager(limits);

  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 6;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations && !failed.load(); ++i) {
        auto id = manager.Open(SmallParams(100 + t * kIterations + i));
        if (!id.ok()) {
          failed.store(true);
          return;
        }
        auto st = manager.Step(*id, 1);
        if (!st.ok() || !manager.Info(*id).ok() ||
            !manager.Close(*id).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  // Sample Health() while the registry churns: live_sessions is a sum of
  // per-shard sizes taken under each shard's lock — it must stay within
  // [0, max] and the private-bytes aggregate must never underflow.
  for (int i = 0; i < 200; ++i) {
    ServiceHealth h = manager.Health();
    EXPECT_LE(h.live_sessions, limits.max_sessions);
    EXPECT_LT(h.posting_resident_bytes, size_t{1} << 40);  // No underflow.
    EXPECT_LE(manager.active_sessions(), limits.max_sessions);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.Health().live_sessions, 0u);
}

TEST(SessionShardTest, RacingOpensNeverExceedMaxSessions) {
  ServiceLimits limits;
  limits.max_sessions = 4;
  limits.session_shards = 8;
  SessionManager manager(limits);

  // 3 rounds of 12 racing opens against 4 slots: every round exactly 4
  // must win (reservation is atomic — no shard-local recheck to race) and
  // every loser must get the typed admission error.
  for (int round = 0; round < 3; ++round) {
    std::vector<StatusOr<std::string>> results(
        12, StatusOr<std::string>(Status::Internal("unset")));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&, t] {
        results[t] = manager.Open(SmallParams(500 + t));
      });
    }
    for (auto& t : threads) t.join();

    size_t admitted = 0;
    for (const auto& r : results) {
      if (r.ok()) {
        ++admitted;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      }
    }
    EXPECT_EQ(admitted, limits.max_sessions);
    EXPECT_EQ(manager.active_sessions(), limits.max_sessions);

    for (const auto& r : results) {
      if (r.ok()) EXPECT_TRUE(manager.Close(*r).ok());
    }
    EXPECT_EQ(manager.active_sessions(), 0u);  // Slots fully recycled.
  }
}

TEST(SessionShardTest, RecoveryReregistersSessionsAcrossShards) {
  std::string dir = MakeTempDir("recovery");
  ServiceLimits limits;
  limits.max_sessions = 16;
  limits.session_shards = 4;
  limits.journal_dir = dir;

  std::vector<std::string> ids;
  std::vector<uint32_t> crcs;
  {
    SessionManager manager(limits);
    for (uint64_t i = 0; i < 6; ++i) {
      auto id = manager.Open(SmallParams(700 + i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      auto st = manager.Step(*id, 0);  // Run to convergence, journaled.
      ASSERT_TRUE(st.ok());
      ASSERT_TRUE(st->finished);
      ids.push_back(*id);
      crcs.push_back(st->table_crc);
    }
    // Destroyed without Close: journals + meta stay on disk.
  }

  SessionManager recovered(limits);
  EXPECT_EQ(recovered.RecoverSessions(), ids.size());
  EXPECT_EQ(recovered.active_sessions(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto st = recovered.Info(ids[i]);
    ASSERT_TRUE(st.ok()) << ids[i] << ": " << st.status().ToString();
    EXPECT_EQ(st->table_crc, crcs[i]) << ids[i];
  }
  // Fresh opens after recovery must not collide with recovered ids (the
  // atomic id counter caught up past the highest recovered id).
  auto fresh = recovered.Open(SmallParams(900));
  ASSERT_TRUE(fresh.ok());
  for (const auto& id : ids) EXPECT_NE(*fresh, id);
  recovered.CloseAll();
}

TEST(SessionShardTest, SharedBaseSurvivesUntilLastCrossShardClose) {
  ServiceLimits limits;
  limits.max_sessions = 32;
  limits.session_shards = 8;
  SessionManager manager(limits);

  // Workload builds since `before`: NextWorkloadSnapshotId() draws one id
  // itself, and every build draws one more.
  auto builds_since = [](uint64_t before) {
    return NextWorkloadSnapshotId() - before - 1;
  };
  // Opens and closes one session on each of kMaxCachedBases new bases, so
  // every base that was idle before is evicted.
  auto churn_other_bases = [&](size_t first) {
    for (size_t i = first; i < first + SessionManager::kMaxCachedBases;
         ++i) {
      SessionManager::OpenParams p = SmallParams(42);
      p.scale = kScale + 0.001 * static_cast<double>(i + 1);
      auto id = manager.Open(p);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(manager.Close(*id).ok());
    }
  };

  // Same (dataset, scale) → one shared base, pinned by sessions whose ids
  // hash to different shards. The base is built once and must outlive any
  // single shard's sessions.
  uint64_t before = NextWorkloadSnapshotId();
  std::vector<std::string> ids;
  for (uint64_t i = 0; i < 8; ++i) {
    auto id = manager.Open(SmallParams(42));  // Same seed: same base.
    ASSERT_TRUE(id.ok());
    auto st = manager.Step(*id, 0);
    ASSERT_TRUE(st.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(builds_since(before), 1u);
  EXPECT_EQ(manager.Health().live_sessions, 8u);
  EXPECT_EQ(manager.cached_bases(), 1u);

  // Close all but one: the survivor keeps the base live through eviction
  // pressure, so a later open on it builds nothing.
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_TRUE(manager.Close(ids[i]).ok());
  }
  ServiceHealth one_left = manager.Health();
  EXPECT_EQ(one_left.live_sessions, 1u);
  EXPECT_EQ(manager.cached_bases(), 1u);
  churn_other_bases(0);
  EXPECT_LE(manager.cached_bases(), SessionManager::kMaxCachedBases);
  before = NextWorkloadSnapshotId();
  auto again = manager.Open(SmallParams(42));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(builds_since(before), 0u);
  ASSERT_TRUE(manager.Close(*again).ok());
  auto st = manager.Info(ids.back());
  ASSERT_TRUE(st.ok());

  // After the last close the base is idle, so eviction may drop it: the
  // next open on it rebuilds.
  ASSERT_TRUE(manager.Close(ids.back()).ok());
  EXPECT_EQ(manager.Health().live_sessions, 0u);
  churn_other_bases(SessionManager::kMaxCachedBases);
  before = NextWorkloadSnapshotId();
  auto rebuilt = manager.Open(SmallParams(42));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(builds_since(before), 1u);
  ASSERT_TRUE(manager.Close(*rebuilt).ok());
}

}  // namespace
}  // namespace falcon
