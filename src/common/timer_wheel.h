// Hashed timing wheel for the event-driven service transport.
//
// The epoll loop needs thousands of coarse deadlines (per-connection
// read/write timers) with O(1) arm/advance and no per-cancel bookkeeping.
// A classic hashed wheel fits: `buckets` slots of `tick_ms` width; an
// entry lands in the bucket of its due tick and is surfaced when the
// cursor passes it. Entries further out than one revolution are re-hashed
// when their bucket fires (standard cascading-by-rehash).
//
// Cancellation is lazy: the wheel never removes entries. The owner keeps
// the authoritative deadline per id and simply ignores (or re-schedules)
// stale firings — the cheapest correct scheme when timers are routinely
// re-armed, as per-connection I/O deadlines are.
//
// Single-threaded by design: owned and driven by one event loop.
#ifndef FALCON_COMMON_TIMER_WHEEL_H_
#define FALCON_COMMON_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace falcon {

class TimerWheel {
 public:
  /// `tick_ms` is the firing granularity (deadlines fire up to one tick
  /// late, never early); `buckets` × `tick_ms` is one revolution.
  explicit TimerWheel(int64_t now_ms, int64_t tick_ms = 50,
                      size_t buckets = 1024)
      : tick_ms_(tick_ms > 0 ? tick_ms : 1),
        buckets_(buckets > 1 ? buckets : 2),
        cursor_tick_(now_ms / tick_ms_) {}

  /// Arms `id` to fire at `due_ms` (absolute). Entries already due land in
  /// the current bucket and surface on the next Advance. Re-arming the
  /// same id leaves the older entry in place as a stale firing.
  void Schedule(uint64_t id, int64_t due_ms) {
    int64_t tick = due_ms / tick_ms_;
    if (tick < cursor_tick_) tick = cursor_tick_;
    buckets_[static_cast<size_t>(tick) % buckets_.size()].push_back(
        Entry{id, due_ms});
    ++armed_;
  }

  /// Advances the cursor to `now_ms`, appending every id whose entry came
  /// due to `*fired` (owners revalidate against their authoritative
  /// deadline). Not-yet-due entries in passed buckets (later revolutions)
  /// are re-hashed, not fired.
  void Advance(int64_t now_ms, std::vector<uint64_t>* fired) {
    int64_t target_tick = now_ms / tick_ms_;
    // Bound one call to a single revolution: after that every bucket has
    // been visited once and re-hashed entries are already placed right.
    int64_t steps = target_tick - cursor_tick_;
    if (steps > static_cast<int64_t>(buckets_.size())) {
      steps = static_cast<int64_t>(buckets_.size());
    }
    for (int64_t i = 0; i <= steps; ++i) {
      int64_t tick = cursor_tick_ + i;
      auto& bucket = buckets_[static_cast<size_t>(tick) % buckets_.size()];
      // Fire what is due; keep the rest in order. A kept entry is either
      // due this very tick but later in wall time (left for the next
      // Advance call rather than spinning within the tick) or due in a
      // later revolution.
      size_t kept = 0;
      for (const Entry& e : bucket) {
        if (e.due_ms <= now_ms) {
          fired->push_back(e.id);
          --armed_;
        } else {
          bucket[kept++] = e;
        }
      }
      bucket.resize(kept);
    }
    cursor_tick_ = target_tick;
  }

  /// Milliseconds until the next *possible* firing, or -1 when nothing is
  /// armed — the epoll_wait timeout. Conservative: returns one tick when
  /// any entry is armed (the wheel does not track a global minimum).
  int64_t NextTimeoutMs() const { return armed_ == 0 ? -1 : tick_ms_; }

  size_t armed() const { return armed_; }
  int64_t tick_ms() const { return tick_ms_; }

 private:
  struct Entry {
    uint64_t id;
    int64_t due_ms;
  };

  int64_t tick_ms_;
  /// Vectors, not deques: an empty vector allocates nothing, while each
  /// empty libstdc++ deque holds a 512-byte node, ~0.3 MB for a
  /// 512-bucket wheel that is mostly empty.
  std::vector<std::vector<Entry>> buckets_;
  int64_t cursor_tick_;
  size_t armed_ = 0;
};

}  // namespace falcon

#endif  // FALCON_COMMON_TIMER_WHEEL_H_
