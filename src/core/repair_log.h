// RepairLog: a cell-level journal of every repair executed during a
// cleaning run — the validated SQLU rule (or manual fix) together with the
// overwritten values. It backs two needs from the paper's user-mistake
// discussion (Exp-5): detecting that a cell is being rewritten again
// ("the system checks updates and notifies users whenever it is updating a
// cell that has been repaired in previous iterations"), and undoing a rule
// that was validated by mistake.
#ifndef FALCON_CORE_REPAIR_LOG_H_
#define FALCON_CORE_REPAIR_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/posting_index.h"
#include "relational/sqlu.h"
#include "relational/table.h"

namespace falcon {

class RepairLog {
 public:
  /// One executed repair: the statement plus the per-cell before-images.
  struct Entry {
    SqluQuery query;
    size_t col = 0;
    /// (row, value before the repair) pairs, ascending by row.
    std::vector<std::pair<uint32_t, ValueId>> before;
    bool manual = false;  ///< True for single-cell user fixes.
  };

  /// Records a repair that wrote `query.set_value` into `rows` of `col`;
  /// `before` carries the overwritten values aligned with `rows`.
  void Record(SqluQuery query, size_t col,
              std::vector<std::pair<uint32_t, ValueId>> before,
              bool manual = false) {
    entries_.push_back(Entry{std::move(query), col, std::move(before),
                             manual});
  }

  /// Reverts the most recent entry against `table` (which must be the
  /// table the repairs were applied to). Returns false when empty.
  bool UndoLast(Table& table) {
    if (entries_.empty()) return false;
    const Entry& e = entries_.back();
    for (const auto& [row, value] : e.before) {
      table.set_cell(row, e.col, value);
    }
    entries_.pop_back();
    return true;
  }

  /// Reverts entry `i` (a mistakenly-validated rule) against `table`,
  /// restoring its before-images and erasing the entry. Refuses with
  /// FailedPrecondition when any *later* entry overlaps entry i's cells:
  /// undoing out of order would resurrect a value the later repair already
  /// replaced, so overlapping entries must be retracted newest-first.
  /// When `posting` is non-null the reversal is fed through the index —
  /// per-cell deltas in delta-maintenance mode, column invalidation
  /// otherwise — so cached bitmaps stay consistent with the table.
  Status Undo(size_t i, Table& table, PostingIndex* posting = nullptr) {
    FALCON_RETURN_IF_ERROR(CanUndo(i));
    const Entry& e = entries_[i];
    for (const auto& [row, value] : e.before) {
      ValueId current = table.cell(row, e.col);
      if (posting != nullptr && current != value) {
        if (posting->delta_maintenance()) {
          posting->ApplyCellDelta(e.col, row, current, value);
        } else {
          posting->InvalidateColumn(e.col);
        }
      }
      table.set_cell(row, e.col, value);
    }
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    return Status::Ok();
  }

  /// The check half of Undo, side-effect free: bounds + overlap refusal.
  /// The session journals a retraction only after this passes (write-ahead
  /// without the risk of journaling a refused retraction).
  Status CanUndo(size_t i) const {
    if (i >= entries_.size()) {
      return Status::InvalidArgument("repair log has no entry " +
                                     std::to_string(i));
    }
    const Entry& e = entries_[i];
    for (size_t j = i + 1; j < entries_.size(); ++j) {
      if (entries_[j].col != e.col) continue;
      // Both before-lists are ascending by row: merge-scan for overlap.
      const auto& a = e.before;
      const auto& b = entries_[j].before;
      size_t x = 0, y = 0;
      while (x < a.size() && y < b.size()) {
        if (a[x].first < b[y].first) {
          ++x;
        } else if (a[x].first > b[y].first) {
          ++y;
        } else {
          return Status::FailedPrecondition(
              "cannot undo repair " + std::to_string(i) + ": repair " +
              std::to_string(j) + " later rewrote cell (row " +
              std::to_string(a[x].first) + ", col " + std::to_string(e.col) +
              "); retract overlapping repairs newest-first");
        }
      }
    }
    return Status::Ok();
  }

  /// Drops everything (a session restart or recovery rebuilds the log).
  void Clear() { entries_.clear(); }

  /// How many logged repairs have touched this cell — the paper's cycle
  /// signal (>1 means the cell is being re-repaired).
  /// Scans the log: no production path asks, so a per-cell counter map
  /// (one heap node per repaired cell, kept for the session's life) does
  /// not pay for itself.
  size_t TimesRepaired(uint32_t row, size_t col) const {
    size_t n = 0;
    for (const Entry& e : entries_) {
      if (e.col != col) continue;
      auto it = std::lower_bound(
          e.before.begin(), e.before.end(), row,
          [](const std::pair<uint32_t, ValueId>& p, uint32_t r) {
            return p.first < r;
          });
      if (it != e.before.end() && it->first == row) ++n;
    }
    return n;
  }

  const std::deque<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Total cells written across all logged repairs.
  size_t cells_written() const {
    size_t n = 0;
    for (const Entry& e : entries_) n += e.before.size();
    return n;
  }

  /// Renders the journal as replayable SQL, newest last.
  std::string ToSqlScript() const {
    std::string out;
    for (const Entry& e : entries_) {
      out += e.query.ToSql();
      out += e.manual ? "  -- manual fix\n" : "\n";
    }
    return out;
  }

 private:
  /// A deque, not a vector: entries live as long as the session, and a
  /// vector's doubling would keep up to half its capacity idle and free
  /// its old buffer into the heap at every growth.
  std::deque<Entry> entries_;
};

}  // namespace falcon

#endif  // FALCON_CORE_REPAIR_LOG_H_
