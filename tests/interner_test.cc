#include "common/interner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session_journal.h"
#include "relational/table.h"

namespace falcon {
namespace {

TEST(ValuePoolTest, NullSlotReserved) {
  ValuePool pool;
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Get(kNullValueId), "");
}

TEST(ValuePoolTest, InternIsIdempotent) {
  ValuePool pool;
  ValueId a = pool.Intern("Austin");
  ValueId b = pool.Intern("Austin");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kNullValueId);
  EXPECT_EQ(pool.Get(a), "Austin");
}

TEST(ValuePoolTest, DistinctStringsGetDistinctIds) {
  ValuePool pool;
  ValueId a = pool.Intern("Austin");
  ValueId b = pool.Intern("Boston");
  EXPECT_NE(a, b);
}

TEST(ValuePoolTest, EmptyStringIsARegularValue) {
  ValuePool pool;
  ValueId e = pool.Intern("");
  // Interning "" returns the NULL slot by construction (slot 0 holds "").
  EXPECT_EQ(e, kNullValueId);
}

TEST(ValuePoolTest, LookupMissingReturnsNull) {
  ValuePool pool;
  EXPECT_EQ(pool.Lookup("never-seen"), kNullValueId);
  pool.Intern("seen");
  EXPECT_NE(pool.Lookup("seen"), kNullValueId);
}

TEST(ValuePoolTest, ManyValuesSurviveReallocation) {
  ValuePool pool;
  std::vector<ValueId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(pool.Intern("value_" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(pool.Get(ids[i]), "value_" + std::to_string(i));
    EXPECT_EQ(pool.Lookup("value_" + std::to_string(i)), ids[i]);
  }
}

TEST(ValuePoolTest, WithTextsDecodesLikeGetAndReturnsResult) {
  ValuePool pool;
  std::vector<ValueId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(pool.Intern("v" + std::to_string(i)));
  }
  size_t total = pool.WithTexts([&](const ValuePool::Texts& texts) {
    size_t bytes = 0;
    for (ValueId id : ids) {
      EXPECT_EQ(texts[id], pool.Get(id));
      bytes += texts[id].size();
    }
    EXPECT_EQ(texts[kNullValueId], "");
    return bytes;
  });
  EXPECT_EQ(total, 10u * 2 + 90u * 3);
}

// Concurrent sessions hash COW clones of one base whose pool they share,
// while other sessions intern new values into that pool. Every CRC must
// equal the serial one (run under TSan in CI).
TEST(ValuePoolTest, TableCrcOnSharedPoolUnderConcurrentIntern) {
  auto pool = std::make_shared<ValuePool>();
  Table base("base", Schema({"a", "b", "c", "d"}), pool);
  for (int r = 0; r < 500; ++r) {
    base.AppendRow(std::vector<std::string>{
        "city" + std::to_string(r % 37), "zip" + std::to_string(r % 101),
        "state" + std::to_string(r % 7), "row" + std::to_string(r)});
  }
  const uint32_t serial = TableContentsCrc(base);

  constexpr int kReaders = 4;
  std::vector<Table> clones;
  for (int i = 0; i < kReaders; ++i) clones.push_back(base.Clone());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      for (int rep = 0; rep < 50; ++rep) {
        if (TableContentsCrc(clones[i]) != serial) ++mismatches;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20000; ++i) pool->Intern("fresh" + std::to_string(i));
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool->Get(pool->Lookup("fresh19999")), "fresh19999");
}

}  // namespace
}  // namespace falcon
