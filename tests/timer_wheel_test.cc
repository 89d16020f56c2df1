#include "common/timer_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace falcon {
namespace {

TEST(TimerWheelTest, FiresDueEntriesOnlyAndKeepsTheRest) {
  TimerWheel wheel(/*now_ms=*/0, /*tick_ms=*/10, /*buckets=*/8);
  wheel.Schedule(1, 25);
  wheel.Schedule(2, 25);
  wheel.Schedule(3, 28);   // Same tick as 1 and 2, later in wall time.
  wheel.Schedule(4, 105);  // Same bucket as 1-3, one revolution later.
  EXPECT_EQ(wheel.armed(), 4u);

  std::vector<uint64_t> fired;
  wheel.Advance(20, &fired);
  EXPECT_TRUE(fired.empty());
  wheel.Advance(26, &fired);
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 2}));  // In arming order.
  fired.clear();
  wheel.Advance(29, &fired);
  EXPECT_EQ(fired, (std::vector<uint64_t>{3}));
  EXPECT_EQ(wheel.armed(), 1u);

  fired.clear();
  wheel.Advance(100, &fired);
  EXPECT_TRUE(fired.empty());  // 4 is a revolution out: re-hashed, kept.
  wheel.Advance(110, &fired);
  EXPECT_EQ(fired, (std::vector<uint64_t>{4}));
  EXPECT_EQ(wheel.armed(), 0u);
  EXPECT_EQ(wheel.NextTimeoutMs(), -1);
}

TEST(TimerWheelTest, PastDeadlinesFireOnNextAdvance) {
  TimerWheel wheel(/*now_ms=*/1000, /*tick_ms=*/50, /*buckets=*/4);
  wheel.Schedule(7, 10);  // Already overdue.
  std::vector<uint64_t> fired;
  wheel.Advance(1000, &fired);
  EXPECT_EQ(fired, (std::vector<uint64_t>{7}));
}

}  // namespace
}  // namespace falcon
