// In-memory relational table with dictionary-encoded columns. This is the
// storage substrate that stands in for the paper's PostgreSQL instance: it
// supports exactly the operations FALCON needs — equality scans producing
// row bitmaps, point cell updates, and whole-table cloning (clean vs. dirty
// instances share one ValuePool so equal strings compare by id).
//
// Columns are copy-on-write: Clone() shares the column storage of the
// source (O(arity), not O(cells)), and the first write to a shared column
// detaches a private copy. K concurrent sessions snapshotting one base
// instance therefore pay only for the columns they actually repair, and a
// base held as `shared_ptr<const Table>` is never perturbed by its clones.
// Reads of shared columns from many threads are safe; a Table object
// itself (its mutating API) must be confined to one thread at a time.
#ifndef FALCON_RELATIONAL_TABLE_H_
#define FALCON_RELATIONAL_TABLE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/row_set.h"
#include "common/status.h"
#include "relational/schema.h"

namespace falcon {

/// Column-major table of interned values.
class Table {
 public:
  Table() = default;

  /// Creates an empty table. If `pool` is null a fresh pool is allocated.
  Table(std::string name, Schema schema,
        std::shared_ptr<ValuePool> pool = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return schema_.arity(); }
  const std::shared_ptr<ValuePool>& pool() const { return pool_; }

  /// Appends a row of raw strings, interning each value.
  void AppendRow(const std::vector<std::string>& values);

  /// View-based AppendRow: interns straight from the caller's buffers with
  /// no per-row vector<string> materialization. The CSV reader and the
  /// workload generators feed this form.
  void AppendRow(std::span<const std::string_view> values);

  /// Appends a row of already-interned ids.
  void AppendRowIds(const std::vector<ValueId>& ids);

  /// Bulk append of a pre-interned column chunk: `chunk[c]` holds the new
  /// values of column `c`, all the same length. One detach check and one
  /// vector append per column instead of per cell — the chunked-ingest and
  /// streaming-append hot path. Returns the row id of the first new row.
  size_t AppendBatch(const std::vector<std::vector<ValueId>>& chunk);

  /// Pre-sizes every column for `total_rows` rows (bulk-ingest hint).
  void ReserveRows(size_t total_rows);

  ValueId cell(size_t row, size_t col) const { return (*columns_[col])[row]; }
  void set_cell(size_t row, size_t col, ValueId v) {
    MutableColumn(col)[row] = v;
  }

  /// Interns `text` in this table's pool and stores it at (row, col).
  void SetCellText(size_t row, size_t col, std::string_view text);

  /// Decodes the value at (row, col).
  std::string_view CellText(size_t row, size_t col) const {
    return pool_->Get(cell(row, col));
  }

  /// Raw column storage (read-only), used by profiling hot loops.
  const std::vector<ValueId>& column(size_t col) const {
    return *columns_[col];
  }

  /// Write counter of `col`: it grows with every write to the column through
  /// this object's mutating API (cell writes, appends, reserves), so a
  /// reader that kept a copy of some of the column's cells together with
  /// this value knows the copy is current while the value is unchanged.
  /// The counter is per object: a Clone starts its own at zero, and
  /// assigning another Table into this one is not a tracked write.
  uint64_t column_writes(size_t col) const { return column_writes_[col]; }

  /// Interns a value in this table's pool.
  ValueId Intern(std::string_view s) { return pool_->Intern(s); }

  /// Returns the id of `s` if interned anywhere in the shared pool, else
  /// kNullValueId.
  ValueId Lookup(std::string_view s) const { return pool_->Lookup(s); }

  /// Rows where column `col` equals `v` — a posting bitmap, O(num_rows).
  /// Builds whole 64-bit words branch-free and shards across the global
  /// thread pool on large tables.
  RowSet ScanEquals(size_t col, ValueId v) const;

  /// Rows matching a conjunction of (col, value) equality predicates.
  RowSet ScanConjunction(
      const std::vector<std::pair<size_t, ValueId>>& preds) const;

  /// Number of distinct non-null values in `col`.
  size_t DistinctCount(size_t col) const;

  /// Copy-on-write snapshot: O(arity) — column storage is shared with the
  /// source until either side writes. The ValuePool is shared (append-only).
  Table Clone() const;

  /// Number of columns whose storage is currently shared with at least one
  /// other table (snapshot accounting; used by tests and service metrics).
  size_t SharedColumnCount() const;

  /// Number of cells where this table differs from `other` (same shape
  /// required). Used to measure residual dirtiness against the clean table.
  size_t CountDiffCells(const Table& other) const;

  /// Pretty-prints up to `max_rows` rows (debug/examples).
  std::string ToString(size_t max_rows = 20) const;

 private:
  using Column = std::vector<ValueId>;

  /// Returns writable storage for `col`, detaching a private copy first if
  /// the column is shared with another snapshot. use_count()==1 proves sole
  /// ownership: any thread that could still read through another reference
  /// must itself hold one, which would keep the count above one.
  /// Every write path goes through here, which is what makes
  /// column_writes() exact.
  Column& MutableColumn(size_t col) {
    ++column_writes_[col];
    if (columns_[col].use_count() != 1) DetachColumn(col);
    return *columns_[col];
  }
  void DetachColumn(size_t col);

  std::string name_;
  Schema schema_;
  std::shared_ptr<ValuePool> pool_;
  std::vector<std::shared_ptr<Column>> columns_;
  std::vector<uint64_t> column_writes_;  // See column_writes().
  size_t num_rows_ = 0;
};

}  // namespace falcon

#endif  // FALCON_RELATIONAL_TABLE_H_
