#include "relational/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/simd.h"

namespace falcon {

Table::Table(std::string name, Schema schema, std::shared_ptr<ValuePool> pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool ? std::move(pool) : std::make_shared<ValuePool>()) {
  columns_.reserve(schema_.arity());
  for (size_t c = 0; c < schema_.arity(); ++c) {
    columns_.push_back(std::make_shared<Column>());
  }
  column_writes_.assign(schema_.arity(), 0);
}

void Table::DetachColumn(size_t col) {
  columns_[col] = std::make_shared<Column>(*columns_[col]);
}

void Table::NoteAppend(size_t first_row) {
  if (num_rows_ == first_row) return;
  block_writes_.resize((num_rows_ + kRowsPerBlock - 1) / kRowsPerBlock, 0);
  for (size_t b = first_row / kRowsPerBlock; b < block_writes_.size(); ++b) {
    ++block_writes_[b];
  }
}

void Table::AppendRow(const std::vector<std::string>& values) {
  FALCON_CHECK(values.size() == schema_.arity());
  for (size_t c = 0; c < values.size(); ++c) {
    MutableColumn(c).push_back(pool_->Intern(values[c]));
  }
  ++num_rows_;
  NoteAppend(num_rows_ - 1);
}

void Table::AppendRow(std::span<const std::string_view> values) {
  FALCON_CHECK(values.size() == schema_.arity());
  for (size_t c = 0; c < values.size(); ++c) {
    MutableColumn(c).push_back(pool_->Intern(values[c]));
  }
  ++num_rows_;
  NoteAppend(num_rows_ - 1);
}

void Table::AppendRowIds(const std::vector<ValueId>& ids) {
  FALCON_CHECK(ids.size() == schema_.arity());
  for (size_t c = 0; c < ids.size(); ++c) {
    MutableColumn(c).push_back(ids[c]);
  }
  ++num_rows_;
  NoteAppend(num_rows_ - 1);
}

size_t Table::AppendBatch(const std::vector<std::vector<ValueId>>& chunk) {
  FALCON_CHECK(chunk.size() == schema_.arity());
  size_t first_row = num_rows_;
  size_t batch = schema_.arity() == 0 ? 0 : chunk[0].size();
  for (size_t c = 0; c < chunk.size(); ++c) {
    FALCON_CHECK(chunk[c].size() == batch);
    Column& col = MutableColumn(c);
    col.insert(col.end(), chunk[c].begin(), chunk[c].end());
  }
  num_rows_ += batch;
  NoteAppend(first_row);
  return first_row;
}

void Table::ReserveRows(size_t total_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    // Reserving writes no elements, but growing shared storage would move
    // data out from under other snapshots — detach first like any mutation.
    MutableColumn(c).reserve(total_rows);
  }
}

void Table::SetCellText(size_t row, size_t col, std::string_view text) {
  set_cell(row, col, pool_->Intern(text));
}

RowSet Table::ScanEquals(size_t col, ValueId v) const {
  RowSet rows(num_rows_);
  simd::EqMask(columns_[col]->data(), num_rows_, v, rows.mutable_word_data());
  return rows;
}

RowSet Table::ScanConjunction(
    const std::vector<std::pair<size_t, ValueId>>& preds) const {
  if (preds.empty()) return RowSet(num_rows_, /*fill=*/true);
  RowSet rows = ScanEquals(preds[0].first, preds[0].second);
  RowSet scratch(num_rows_);
  for (size_t i = 1; i < preds.size(); ++i) {
    const auto& [col, v] = preds[i];
    simd::EqMask(columns_[col]->data(), num_rows_, v,
                 scratch.mutable_word_data());
    rows.And(scratch);
  }
  return rows;
}

size_t Table::DistinctCount(size_t col, size_t stop_above) const {
  // One pass over a bit vector indexed by ValueId: ids are dense pool
  // indices, so the vector spans at most the pool and grows to the
  // largest id the column holds. The bound is checked once per 64 rows.
  const std::vector<ValueId>& values = *columns_[col];
  const size_t n = values.size();
  std::vector<uint64_t> seen;
  size_t distinct = 0;
  for (size_t r0 = 0; r0 < n; r0 += 64) {
    if (distinct > stop_above) return stop_above + 1;
    if (stop_above < n && distinct + (n - r0) <= stop_above) return distinct;
    size_t end = std::min(n, r0 + 64);
    for (size_t r = r0; r < end; ++r) {
      ValueId v = values[r];
      if (v == kNullValueId) continue;
      size_t w = v >> 6;
      if (w >= seen.size()) seen.resize(std::max(w + 1, 2 * seen.size()), 0);
      uint64_t bit = uint64_t{1} << (v & 63);
      distinct += (seen[w] & bit) == 0;
      seen[w] |= bit;
    }
  }
  return distinct > stop_above ? stop_above + 1 : distinct;
}

Table Table::Clone() const {
  Table copy(name_, schema_, pool_);
  copy.columns_ = columns_;  // Shared until either side writes (COW).
  copy.column_writes_ = column_writes_;
  copy.block_writes_ = block_writes_;
  copy.num_rows_ = num_rows_;
  return copy;
}

size_t Table::SharedColumnCount() const {
  size_t shared = 0;
  for (const auto& col : columns_) shared += col.use_count() > 1;
  return shared;
}

size_t Table::CountDiffCells(const Table& other) const {
  size_t diff = 0;
  ForEachDiffCell(other, [&](size_t, size_t) { ++diff; });
  return diff;
}

uint64_t Table::DiffMask(const ValueId* a, const ValueId* b, size_t n) {
  // Most blocks are clean: an OR of XORs, a plain reduction the compiler
  // vectorizes, settles those before any bit is placed.
  ValueId any = 0;
  for (size_t i = 0; i < n; ++i) any |= a[i] ^ b[i];
  if (any == 0) return 0;
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) mask |= uint64_t{a[i] != b[i]} << i;
  return mask;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t c = 0; c < num_cols(); ++c) {
    if (c > 0) os << " | ";
    os << schema_.attribute(c);
  }
  os << "\n";
  size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_cols(); ++c) {
      if (c > 0) os << " | ";
      os << CellText(r, c);
    }
    os << "\n";
  }
  if (n < num_rows_) {
    os << "... (" << (num_rows_ - n) << " more rows)\n";
  }
  return os.str();
}

}  // namespace falcon
