// ValuePool: append-only string interner shared by the clean and dirty
// instances of a dataset so that equal strings have equal ids across tables.
#ifndef FALCON_COMMON_INTERNER_H_
#define FALCON_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace falcon {

/// Identifier of an interned value. `kNullValueId` represents SQL NULL.
using ValueId = uint32_t;

inline constexpr ValueId kNullValueId = 0;

/// Append-only dictionary mapping strings to dense ids. Id 0 is reserved for
/// NULL; the empty string is a regular (non-null) value.
///
/// Thread-safety: concurrent cleaning sessions share one pool (their tables
/// are copy-on-write snapshots of the same base instances), so all methods
/// are safe to call from many threads. Reads take a shared lock (once per
/// call, or once per pass with WithTexts); Intern upgrades to exclusive
/// only on first sight of a value. Storage is a deque so element addresses
/// are stable — a string_view from Get() stays valid for the pool's
/// lifetime even while other threads intern.
///
/// Determinism note: the *ids* assigned to values interned concurrently
/// depend on thread interleaving, but every consumer compares values by
/// id-equality within one pool (equal strings always share one id) or by
/// text, so session outcomes are interleaving-independent.
class ValuePool {
 public:
  ValuePool() {
    // Slot 0: NULL. The empty string maps to NULL — CSV blanks and SQL
    // NULLs are treated uniformly.
    strings_.emplace_back("");
    ids_.emplace(strings_.back(), kNullValueId);
  }

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Interns `s` and returns its id; returns the existing id if present.
  ValueId Intern(std::string_view s) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = ids_.find(s);
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(s);  // Re-check: another thread may have won.
    if (it != ids_.end()) return it->second;
    ValueId id = static_cast<ValueId>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  /// Interns `n` strings in one pass, writing their ids to `out[0..n)`.
  /// Equivalent to calling Intern per element but takes the locks once:
  /// a shared-lock probe resolves already-known values, then a single
  /// exclusive section inserts the misses in order. New ids are assigned
  /// in first-occurrence order within the batch, so single-threaded batch
  /// ingest assigns the same ids as the per-row loop it replaces.
  void InternBatch(std::span<const std::string_view> values, ValueId* out) {
    size_t misses = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (size_t i = 0; i < values.size(); ++i) {
        auto it = ids_.find(values[i]);
        if (it != ids_.end()) {
          out[i] = it->second;
        } else {
          out[i] = kPendingId;
          ++misses;
        }
      }
    }
    if (misses == 0) return;
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < values.size(); ++i) {
      if (out[i] != kPendingId) continue;
      auto it = ids_.find(values[i]);  // Re-check: racing interner may win.
      if (it != ids_.end()) {
        out[i] = it->second;
        continue;
      }
      ValueId id = static_cast<ValueId>(strings_.size());
      strings_.emplace_back(values[i]);
      ids_.emplace(strings_.back(), id);
      out[i] = id;
    }
  }

  /// Pre-sizes the id map for about `expected_values` distinct values to
  /// avoid rehash storms during bulk ingest. Purely a hint.
  void Reserve(size_t expected_values) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ids_.reserve(expected_values);
  }

  /// Returns the id for `s`, or kNullValueId if it was never interned.
  ValueId Lookup(std::string_view s) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(s);
    return it == ids_.end() ? kNullValueId : it->second;
  }

  /// Returns the string for `id`. NULL renders as the empty string. The
  /// view stays valid for the pool's lifetime (deque elements never move).
  std::string_view Get(ValueId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return strings_[id];
  }

  /// Id→text accessor handed to a WithTexts callback. `texts[id]` decodes
  /// like Get(id) but takes no lock: it relies on the shared lock its
  /// WithTexts call holds, so it must not escape that call. The views it
  /// returns stay valid for the pool's lifetime, like Get's.
  class Texts {
   public:
    std::string_view operator[](ValueId id) const { return (*strings_)[id]; }

   private:
    friend class ValuePool;
    explicit Texts(const std::deque<std::string>* strings)
        : strings_(strings) {}
    const std::deque<std::string>* strings_;
  };

  /// Bulk read: takes the shared lock once, calls `fn(texts)` with a Texts
  /// accessor, and returns what `fn` returns. Use it for loops that decode
  /// many ids in one go (the whole-table CRC, a rule's before-images):
  /// concurrent sessions share one pool, and a Get per cell is one
  /// reader-lock round trip per cell on the same cache line from every
  /// worker.
  ///
  /// Contract: `fn` must not call back into this pool — no Get, Intern,
  /// InternBatch, Lookup, Reserve, size or nested WithTexts, directly or
  /// through a Table. std::shared_mutex is not recursive: a nested shared
  /// lock is undefined behaviour and an Intern self-deadlocks. Interns of
  /// new values from other threads wait until `fn` returns, so keep it to
  /// decoding: no I/O or blocking.
  template <typename Fn>
  decltype(auto) WithTexts(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return std::forward<Fn>(fn)(Texts(&strings_));
  }

  /// Number of interned values including the NULL slot.
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return strings_.size();
  }

 private:
  // InternBatch marker for slots whose value was absent during the shared
  // probe. A pool would need 2^32-1 live strings before a real id collides.
  static constexpr ValueId kPendingId = 0xFFFFFFFFu;

  // Heterogeneous string_view lookup into a string-keyed map.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view sv) const {
      return std::hash<std::string_view>()(sv);
    }
  };
  struct StringEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;
  std::unordered_map<std::string, ValueId, StringHash, StringEq> ids_;
};

}  // namespace falcon

#endif  // FALCON_COMMON_INTERNER_H_
