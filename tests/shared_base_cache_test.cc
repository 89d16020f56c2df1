// SharedBaseCache: the process-wide base-snapshot read tier. Covers the
// publication protocol (first-publisher-wins, epoch-gated rejection,
// byte-budget rejection, plane separation), the two-tier PostingIndex
// integration (shared probe first, privatize-on-write), and — the
// property everything else exists for — bit-identity of shared-cache
// sessions with solo runs, including under concurrent sessions with a
// chaos invalidator (runs under TSan in CI).
#include "core/shared_base_cache.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/session.h"
#include "datagen/workload.h"
#include "relational/posting_index.h"

namespace falcon {
namespace {

RowSet BitsOf(size_t universe, std::initializer_list<size_t> rows) {
  RowSet s(universe);
  for (size_t r : rows) s.Set(r);
  return s;
}

TEST(SharedBaseCacheTest, PublishFindRoundTripAndPlaneSeparation) {
  SharedBaseCache cache(/*snapshot_id=*/7, /*num_cols=*/4);
  EXPECT_EQ(cache.snapshot_id(), 7u);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.FindPosting(false, 2, ValueId{9}), nullptr);

  RowSet rows = BitsOf(128, {3, 64, 100});
  uint64_t epoch = cache.epoch();
  SharedBaseCache::EntryPtr e =
      cache.PublishPosting(false, 2, ValueId{9}, rows, epoch);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ToDense(), rows);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);

  SharedBaseCache::EntryPtr found = cache.FindPosting(false, 2, ValueId{9});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), e.get());  // One physical bitmap per key.

  // The dense-plane entry must be invisible to the compressed plane and
  // vice versa — representations never alias across sessions.
  EXPECT_EQ(cache.FindPosting(true, 2, ValueId{9}), nullptr);
  cache.PublishPosting(true, 2, ValueId{9}, rows, cache.epoch());
  EXPECT_EQ(cache.entries(), 2u);

  SharedBaseCacheStats st = cache.Stats();
  EXPECT_EQ(st.posting_publishes, 2u);
  EXPECT_EQ(st.posting_hits, 1u);
  EXPECT_EQ(st.posting_misses, 2u);  // Dense pre-publish + compressed probe.
}

TEST(SharedBaseCacheTest, FirstPublisherWins) {
  SharedBaseCache cache(3, 2);
  RowSet first = BitsOf(64, {1, 2});
  RowSet second = BitsOf(64, {5});
  SharedBaseCache::EntryPtr a =
      cache.PublishPosting(false, 0, ValueId{1}, first, cache.epoch());
  // A racing publish of the same key returns the resident entry, not its
  // own bits (in real use both are identical; distinct bits here make the
  // winner observable).
  SharedBaseCache::EntryPtr b =
      cache.PublishPosting(false, 0, ValueId{1}, second, cache.epoch());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->ToDense(), first);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(SharedBaseCacheTest, InvalidateRetiresGenerationAndRejectsStalePublish) {
  SharedBaseCache cache(11, 2);
  RowSet rows = BitsOf(64, {7});
  uint64_t stale = cache.epoch();
  SharedBaseCache::EntryPtr pinned =
      cache.PublishPosting(false, 1, ValueId{4}, rows, stale);

  cache.Invalidate();
  EXPECT_EQ(cache.epoch(), stale + 1);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.FindPosting(false, 1, ValueId{4}), nullptr);
  // The reader's pin survives invalidation (RCU grace via refcount).
  EXPECT_EQ(pinned->ToDense(), rows);

  // A publish computed against the retired epoch must be rejected: the
  // wrap is returned for the caller's own use but never becomes resident.
  SharedBaseCache::EntryPtr rejected =
      cache.PublishPosting(false, 1, ValueId{4}, rows, stale);
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->ToDense(), rows);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.FindPosting(false, 1, ValueId{4}), nullptr);
  EXPECT_GT(cache.Stats().rejected_publishes, 0u);
  EXPECT_EQ(cache.Stats().invalidations, 1u);

  // The current epoch publishes fine.
  cache.PublishPosting(false, 1, ValueId{4}, rows, cache.epoch());
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(SharedBaseCacheTest, ByteBudgetRejectsOverBudgetPublishes) {
  RowSet rows = BitsOf(1024, {1, 1000});
  SharedBaseCache sizer(1, 1);
  sizer.PublishPosting(false, 0, ValueId{0}, rows, sizer.epoch());
  size_t entry_bytes = sizer.resident_bytes();
  ASSERT_GT(entry_bytes, 0u);

  SharedBaseCache cache(2, 1, /*byte_budget=*/entry_bytes);
  cache.PublishPosting(false, 0, ValueId{1}, rows, cache.epoch());
  EXPECT_EQ(cache.entries(), 1u);
  // Over budget: rejected (not evicted — resident entries are immortal
  // until Invalidate), but the caller still gets a usable wrap.
  SharedBaseCache::EntryPtr wrap =
      cache.PublishPosting(false, 0, ValueId{2}, rows, cache.epoch());
  ASSERT_NE(wrap, nullptr);
  EXPECT_EQ(wrap->ToDense(), rows);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.FindPosting(false, 0, ValueId{2}), nullptr);
  EXPECT_GT(cache.Stats().rejected_publishes, 0u);
}

// Builds a rows×cols table over a small alphabet so values recur heavily.
Table MakeRandomTable(size_t rows, size_t cols, size_t alphabet, Rng* rng) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("A" + std::to_string(c));
  Table t("rand", Schema(names));
  std::vector<std::string> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      row[c] = "v" + std::to_string(rng->NextUint(alphabet));
    }
    t.AppendRow(row);
  }
  return t;
}

TEST(TwoTierPostingIndexTest, SharedProbeThenPrivatizeOnWrite) {
  Rng rng(33);
  Table base = MakeRandomTable(400, 3, 6, &rng);
  std::vector<ValueId> alphabet;
  for (size_t a = 0; a < 6; ++a) {
    alphabet.push_back(base.Intern("v" + std::to_string(a)));
  }
  SharedBaseCache cache(/*snapshot_id=*/7, base.num_cols());

  PostingIndexOptions opts;
  opts.delta_maintenance = true;
  opts.shared = &cache;
  opts.base_snapshot_id = 7;

  // Session A, cold: the probe misses the shared tier and publishes.
  Table ta = base.Clone();
  PostingIndex a(&ta, opts);
  ASSERT_TRUE(a.shared_attached());
  EXPECT_EQ(a.Postings(0, alphabet[0]).ToDense(),
            base.ScanEquals(0, alphabet[0]));
  EXPECT_EQ(a.stats().shared_misses, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(a.SharedViewEntries(), 1u);
  EXPECT_GT(a.SharedViewBytes(), 0u);

  // Session B, warm: pure shared hit, private tier untouched.
  Table tb = base.Clone();
  PostingIndex b(&tb, opts);
  EXPECT_EQ(b.Postings(0, alphabet[0]).ToDense(),
            base.ScanEquals(0, alphabet[0]));
  EXPECT_EQ(b.stats().shared_hits, 1u);
  EXPECT_EQ(b.stats().shared_misses, 0u);
  EXPECT_EQ(b.misses(), 0u);
  EXPECT_EQ(b.cached_entries(), 0u);

  // A writes a cell in column 0: the column privatizes, and A's postings
  // track A's table while B keeps serving base bits from the shared tier.
  ValueId old_value = ta.cell(5, 0);
  a.ApplyCellDelta(0, 5, old_value, alphabet[1]);
  ta.set_cell(5, 0, alphabet[1]);
  EXPECT_EQ(a.SharedViewEntries(), 0u);  // Promoted into the private tier.
  EXPECT_GT(a.cached_entries(), 0u);
  for (ValueId v : alphabet) {
    EXPECT_EQ(a.Postings(0, v).ToDense(), ta.ScanEquals(0, v));
  }
  EXPECT_EQ(b.Postings(0, alphabet[0]).ToDense(),
            base.ScanEquals(0, alphabet[0]));

  // A's unwritten columns stay shared-eligible: a fresh probe publishes.
  size_t publishes_before = cache.Stats().posting_publishes;
  EXPECT_EQ(a.Postings(1, alphabet[2]).ToDense(),
            base.ScanEquals(1, alphabet[2]));
  EXPECT_EQ(cache.Stats().posting_publishes, publishes_before + 1);
}

TEST(TwoTierPostingIndexTest, SnapshotMismatchKeepsIndexFullyPrivate) {
  Rng rng(44);
  Table base = MakeRandomTable(100, 2, 4, &rng);
  ValueId v0 = base.Intern("v0");
  SharedBaseCache cache(/*snapshot_id=*/7, base.num_cols());

  PostingIndexOptions opts;
  opts.shared = &cache;
  opts.base_snapshot_id = 8;  // Different generation: never attach.
  PostingIndex index(&base, opts);
  EXPECT_FALSE(index.shared_attached());
  EXPECT_EQ(index.Postings(0, v0).ToDense(), base.ScanEquals(0, v0));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(index.stats().shared_hits, 0u);
  EXPECT_EQ(index.stats().shared_misses, 0u);
  EXPECT_EQ(index.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Session-level bit-identity: the shared tier is pure acceleration.
// ---------------------------------------------------------------------------

constexpr double kScale = 0.02;

struct Outcome {
  SessionMetrics metrics;
  uint32_t crc = 0;
};

bool SameOutcome(const Outcome& a, const Outcome& b) {
  return a.metrics.user_updates == b.metrics.user_updates &&
         a.metrics.user_answers == b.metrics.user_answers &&
         a.metrics.cells_repaired == b.metrics.cells_repaired &&
         a.metrics.queries_applied == b.metrics.queries_applied &&
         a.metrics.converged == b.metrics.converged && a.crc == b.crc;
}

/// Runs one stepwise session over a COW clone of `base.dirty`, optionally
/// attached to `cache`, then retracts the newest repair and re-cleans —
/// so every run exercises reads, cell writes, AND retraction against the
/// shared tier. Identical operation sequence with and without the cache.
Outcome RunOne(const CleaningWorkload& base, uint64_t seed, bool compressed,
               SharedBaseCache* cache) {
  Table working = base.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kCoDive);
  SessionOptions options;
  options.seed = seed;
  options.compressed_rowsets = compressed;
  if (cache != nullptr) {
    options.shared_cache = cache;
    options.base_snapshot_id = base.snapshot_id;
  }
  CleaningSession session(&base.clean, &working, algorithm.get(), options);
  while (!session.finished()) {
    EXPECT_TRUE(session.RunSteps(1).ok());
  }
  if (!session.log().empty()) {
    EXPECT_TRUE(session.RetractRule(session.log().size() - 1).ok());
    EXPECT_TRUE(session.Continue().ok());
  }
  return Outcome{session.metrics(), TableContentsCrc(working)};
}

TEST(SharedBaseCacheSessionTest, SharedSessionsBitIdenticalToSolo) {
  auto base = MakeCleaningWorkload("Synth10k", kScale);
  ASSERT_TRUE(base.ok());
  ASSERT_NE(base->snapshot_id, 0u);
  for (bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "dense");
    Outcome solo5 = RunOne(*base, 5, compressed, nullptr);
    Outcome solo6 = RunOne(*base, 6, compressed, nullptr);
    ASSERT_GT(solo5.metrics.cells_repaired, 0u);

    SharedBaseCache cache(base->snapshot_id, base->dirty.num_cols());
    Outcome cold = RunOne(*base, 5, compressed, &cache);
    Outcome warm = RunOne(*base, 6, compressed, &cache);
    EXPECT_TRUE(SameOutcome(cold, solo5));
    EXPECT_TRUE(SameOutcome(warm, solo6));
    // The warm session actually rode the shared tier.
    EXPECT_GT(warm.metrics.posting_shared_hits, 0u);
    EXPECT_GT(cache.Stats().posting_publishes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan in CI).
// ---------------------------------------------------------------------------

// Raw cache: racing publishers, readers, and an invalidator. Every entry's
// bits are a pure function of its key, so any cross-key or torn state is
// detectable; TSan checks the atomic shared_ptr publication protocol.
TEST(SharedBaseCacheStressTest, RacingPublishersReadersAndInvalidator) {
  constexpr size_t kCols = 4;
  constexpr size_t kValues = 16;
  constexpr size_t kUniverse = 512;
  SharedBaseCache cache(13, kCols);

  auto expected = [&](size_t col, size_t v) {
    RowSet rows(kUniverse);
    for (size_t r = (col * 31 + v * 7) % kUniverse; r < kUniverse;
         r += (v + 3)) {
      rows.Set(r);
    }
    return rows;
  };

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Invalidate();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int step = 0; step < 2000; ++step) {
        size_t col = rng.NextUint(kCols);
        ValueId v = static_cast<ValueId>(rng.NextUint(kValues));
        bool compressed = (step % 2) == 1;
        SharedBaseCache::EntryPtr e = cache.FindPosting(compressed, col, v);
        if (e == nullptr) {
          uint64_t epoch = cache.epoch();
          e = cache.PublishPosting(compressed, col, v, expected(col, v),
                                   epoch);
        }
        ASSERT_NE(e, nullptr);
        // Resident or rejected-wrap, the bits must be the key's bits.
        EXPECT_EQ(e->ToDense(),
                  expected(col, v)) << "col " << col << " v " << v;
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  invalidator.join();
  EXPECT_GT(cache.Stats().invalidations, 0u);
}

// K sessions over one base share one cache, each on its own thread, while
// a chaos thread invalidates the cache repeatedly. Outcomes must stay
// bit-identical to solo runs — a single stale base posting served across
// an epoch boundary, or one session's private write leaking into the
// shared tier, would flip a CRC.
TEST(SharedBaseCacheStressTest, ConcurrentSessionsWithChaosInvalidation) {
  auto base = MakeCleaningWorkload("Synth10k", kScale);
  ASSERT_TRUE(base.ok());
  constexpr size_t kSessions = 4;

  std::vector<Outcome> solo;
  for (size_t i = 0; i < kSessions; ++i) {
    // Mix representations so both planes are exercised concurrently.
    solo.push_back(RunOne(*base, 300 + i, /*compressed=*/(i % 2) == 1,
                          nullptr));
  }

  SharedBaseCache cache(base->snapshot_id, base->dirty.num_cols());
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Invalidate();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<Outcome> concurrent(kSessions);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      concurrent[i] =
          RunOne(*base, 300 + i, /*compressed=*/(i % 2) == 1, &cache);
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  chaos.join();

  for (size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(SameOutcome(concurrent[i], solo[i])) << "session " << i;
  }
  EXPECT_GT(cache.Stats().invalidations, 0u);
  // The shared dirty base itself must be untouched.
  EXPECT_EQ(base->dirty.CountDiffCells(base->dirty.Clone()), 0u);
}

}  // namespace
}  // namespace falcon
