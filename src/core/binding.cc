#include "core/binding.h"

#include <algorithm>

namespace dataspread {

TableBinding::TableBinding(int id, Sheet* sheet, int64_t anchor_row,
                           int64_t anchor_col, Table* table, Database* db,
                           size_t default_window)
    : id_(id),
      sheet_(sheet),
      anchor_row_(anchor_row),
      anchor_col_(anchor_col),
      table_(table),
      db_(db),
      default_window_(default_window) {}

bool TableBinding::ContainsCell(const Sheet* sheet, int64_t row,
                                int64_t col) const {
  if (sheet != sheet_) return false;
  if (col < anchor_col_ ||
      col >= anchor_col_ + static_cast<int64_t>(table_->schema().num_columns())) {
    return false;
  }
  int64_t last_data_row = data_row() + static_cast<int64_t>(table_->num_rows());
  return row >= anchor_row_ && row < last_data_row;
}

Status TableBinding::WriteHeader() {
  const Schema& schema = table_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    int64_t col = anchor_col_ + static_cast<int64_t>(c);
    if (col == anchor_col_) continue;  // anchor cell carries the formula
    DS_RETURN_IF_ERROR(
        sheet_->SetValue(anchor_row_, col, Value::Text(schema.column(c).name)));
    WroteCell(anchor_row_, col);
  }
  return Status::OK();
}

Status TableBinding::WriteRows(size_t start, size_t count) {
  std::vector<uint64_t> rids = table_->RowIdsAt(start, count);
  for (size_t i = 0; i < rids.size(); ++i) {
    window_rids_[start - window_start_ + i] = rids[i];
    DS_ASSIGN_OR_RETURN(Row row, table_->GetRowById(rids[i]));
    int64_t sheet_row = data_row() + static_cast<int64_t>(start + i);
    for (size_t c = 0; c < row.size(); ++c) {
      int64_t sheet_col = anchor_col_ + static_cast<int64_t>(c);
      DS_RETURN_IF_ERROR(
          sheet_->SetValue(sheet_row, sheet_col, std::move(row[c])));
      WroteCell(sheet_row, sheet_col);
    }
  }
  return Status::OK();
}

Status TableBinding::ClearRows(size_t start, size_t count) {
  size_t width = table_->schema().num_columns();
  for (size_t i = 0; i < count; ++i) {
    int64_t sheet_row = data_row() + static_cast<int64_t>(start + i);
    for (size_t c = 0; c < width; ++c) {
      int64_t sheet_col = anchor_col_ + static_cast<int64_t>(c);
      DS_RETURN_IF_ERROR(sheet_->ClearCell(sheet_row, sheet_col));
      WroteCell(sheet_row, sheet_col);
    }
  }
  return Status::OK();
}

Status TableBinding::SetWindow(size_t start, size_t count) {
  if (count == 0) count = default_window_;
  requested_count_ = count;
  size_t n = table_->num_rows();
  start = std::min(start, n);
  count = std::min(count, n - start);
  size_t old_lo = window_start_, old_hi = window_start_ + window_count_;
  size_t new_lo = start, new_hi = start + count;
  // Clear the parts of the old span not covered by the new one.
  if (window_count_ > 0) {
    if (old_lo < new_lo) {
      DS_RETURN_IF_ERROR(ClearRows(old_lo, std::min(old_hi, new_lo) - old_lo));
    }
    if (old_hi > new_hi) {
      size_t from = std::max(old_lo, new_hi);
      DS_RETURN_IF_ERROR(ClearRows(from, old_hi - from));
    }
  }
  // Rows in both spans are already on the sheet and current unless a delta
  // is pending: keep them (shifting their row ids) and write only the rows
  // that enter the window.
  size_t keep_lo = std::max(old_lo, new_lo), keep_hi = std::min(old_hi, new_hi);
  bool pending =
      pending_full_ || pending_from_ != kNoShift || !pending_cells_.empty();
  if (pending || keep_lo >= keep_hi) keep_lo = keep_hi = new_lo;
  std::vector<uint64_t> rids(count, 0);
  if (keep_lo < keep_hi) {
    std::copy(window_rids_.begin() + static_cast<ptrdiff_t>(keep_lo - old_lo),
              window_rids_.begin() + static_cast<ptrdiff_t>(keep_hi - old_lo),
              rids.begin() + static_cast<ptrdiff_t>(keep_lo - new_lo));
  }
  window_rids_ = std::move(rids);
  window_start_ = start;
  window_count_ = count;
  ClearPending();
  refreshes_ += 1;
  DS_RETURN_IF_ERROR(WriteRows(new_lo, keep_lo - new_lo));
  return WriteRows(keep_hi, new_hi - keep_hi);
}

Status TableBinding::RefreshWindow() {
  size_t n = table_->num_rows();
  size_t start = std::min(window_start_, n);
  // Refresh the *configured* span, not the previously materialized one, so
  // the window grows when back-end inserts extend the table into it.
  size_t old_hi = window_start_ + window_count_;
  refreshes_ += 1;
  window_start_ = start;
  window_count_ = std::min(span(), n - start);
  window_rids_.assign(window_count_, 0);
  ClearPending();
  DS_RETURN_IF_ERROR(WriteRows(window_start_, window_count_));
  // Clear rows that fell off the end (table shrank).
  if (old_hi > window_start_ + window_count_) {
    size_t from = window_start_ + window_count_;
    DS_RETURN_IF_ERROR(ClearRows(from, old_hi - from));
  }
  return Status::OK();
}

Status TableBinding::ClearMaterialized() {
  const Schema& schema = table_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    int64_t col = anchor_col_ + static_cast<int64_t>(c);
    if (col != anchor_col_) {
      DS_RETURN_IF_ERROR(sheet_->ClearCell(anchor_row_, col));
    }
  }
  DS_RETURN_IF_ERROR(ClearRows(window_start_, window_count_));
  window_count_ = 0;
  window_rids_.clear();
  ClearPending();
  return Status::OK();
}

void TableBinding::ClearPending() {
  pending_full_ = false;
  pending_from_ = kNoShift;
  pending_cells_.clear();
}

bool TableBinding::NoteChange(const TableChange& change) {
  if (pending_full_) return false;  // the whole window is already due
  switch (change.kind) {
    case TableChange::Kind::kUpdate:
      // Rows at positions >= pending_from_ are rewritten anyway; every row
      // above that still sits where window_rids_ says, so a rid missing
      // from it is not on screen (or is covered by the rewrite).
      if (std::find(window_rids_.begin(), window_rids_.end(), change.rid) ==
          window_rids_.end()) {
        return false;
      }
      pending_cells_.emplace_back(change.rid, change.column);
      return true;
    case TableChange::Kind::kInsert:
    case TableChange::Kind::kDelete:
      if (change.position >= window_start_ + span()) return false;  // below
      if (change.position < window_start_) {
        pending_full_ = true;  // every shown row moved by one
      } else {
        pending_from_ = std::min(pending_from_, change.position);
      }
      return true;
    case TableChange::Kind::kSchema:
    case TableChange::Kind::kBulk:
    case TableChange::Kind::kDrop:
      break;
  }
  pending_full_ = true;
  return true;
}

Status TableBinding::RefreshPending() {
  if (pending_full_) return RefreshWindow();
  if (pending_from_ == kNoShift && pending_cells_.empty()) return Status::OK();
  std::vector<std::pair<uint64_t, size_t>> cells;
  cells.swap(pending_cells_);
  size_t from = pending_from_;
  pending_from_ = kNoShift;
  refreshes_ += 1;
  if (from != kNoShift) DS_RETURN_IF_ERROR(RewriteFrom(from));
  for (const auto& [rid, col] : cells) {
    auto it = std::find(window_rids_.begin(), window_rids_.end(), rid);
    if (it == window_rids_.end()) continue;  // deleted since
    int64_t sheet_row =
        data_row() + static_cast<int64_t>(window_start_) +
        static_cast<int64_t>(it - window_rids_.begin());
    int64_t sheet_col = anchor_col_ + static_cast<int64_t>(col);
    DS_ASSIGN_OR_RETURN(Value v, table_->GetById(rid, col));
    DS_RETURN_IF_ERROR(sheet_->SetValue(sheet_row, sheet_col, std::move(v)));
    WroteCell(sheet_row, sheet_col);
  }
  return Status::OK();
}

Status TableBinding::RewriteFrom(size_t from) {
  // Positions above `from` did not move, so window_start_ <= num_rows().
  size_t n = table_->num_rows();
  size_t old_hi = window_start_ + window_count_;
  window_count_ = std::min(span(), n - window_start_);
  window_rids_.resize(window_count_);
  size_t hi = window_start_ + window_count_;
  if (from < hi) DS_RETURN_IF_ERROR(WriteRows(from, hi - from));
  if (old_hi > hi) DS_RETURN_IF_ERROR(ClearRows(hi, old_hi - hi));
  return Status::OK();
}

Status TableBinding::ApplyFrontEndEdit(int64_t row, int64_t col,
                                       const Value& v) {
  size_t c = static_cast<size_t>(col - anchor_col_);
  if (row == anchor_row_) {
    // Header edit = column rename (dynamic schema, paper §2.2).
    if (v.type() != DataType::kText || v.text_value().empty()) {
      return Status::InvalidArgument("column name must be non-empty text");
    }
    return table_->RenameColumn(table_->schema().column(c).name,
                                v.text_value());
  }
  size_t position = static_cast<size_t>(row - data_row());
  if (position >= table_->num_rows()) {
    return Status::OutOfRange("edit beyond the bound table");
  }
  auto pk = table_->schema().primary_key_index();
  if (pk.has_value() && *pk != c) {
    // The paper's key↔location translation: find the tuple's key at this
    // position, then update through the database by key.
    DS_ASSIGN_OR_RETURN(Value key, table_->GetAt(position, *pk));
    std::string sql = "UPDATE " + table_->name() + " SET " +
                      table_->schema().column(c).name + " = " +
                      v.ToSqlLiteral() + " WHERE " +
                      table_->schema().column(*pk).name + " = " +
                      key.ToSqlLiteral();
    DS_ASSIGN_OR_RETURN(ResultSet rs, db_->Execute(sql));
    if (rs.affected_rows != 1) {
      return Status::Internal("keyed update affected " +
                              std::to_string(rs.affected_rows) + " rows");
    }
    return Status::OK();
  }
  // No usable key: positional update (the interface-aware path).
  return table_->UpdateAt(position, c, v);
}

}  // namespace dataspread
