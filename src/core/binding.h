#ifndef DATASPREAD_CORE_BINDING_H_
#define DATASPREAD_CORE_BINDING_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "db/database.h"
#include "sheet/sheet.h"

namespace dataspread {

/// A two-way binding between a sheet region and a relational table — the unit
/// the paper's Interface Manager maintains per `DBTABLE` (§3): a *context*
/// (sheet + anchor position) plus the key↔location mapping that lets an edit
/// at a position be translated into a keyed UPDATE.
///
/// Layout: the header row (column names) sits at the anchor row; data row
/// `p` of the table displays at sheet row `anchor_row + 1 + p`. Only a
/// *window* of positions [window_start, window_start+window_count) is
/// materialized into sheet cells; the Window Manager slides it as the user
/// pans, which is how a million-row table stays responsive (paper §1).
class TableBinding {
 public:
  TableBinding(int id, Sheet* sheet, int64_t anchor_row, int64_t anchor_col,
               Table* table, Database* db, size_t default_window);

  int id() const { return id_; }
  Sheet* sheet() const { return sheet_; }
  Table* table() const { return table_; }
  int64_t anchor_row() const { return anchor_row_; }
  int64_t anchor_col() const { return anchor_col_; }
  int64_t data_row() const { return anchor_row_ + 1; }
  size_t window_start() const { return window_start_; }
  size_t window_count() const { return window_count_; }

  /// True if the sheet coordinate falls inside the bound region (header or
  /// any data position, materialized or not).
  bool ContainsCell(const Sheet* sheet, int64_t row, int64_t col) const;

  /// Hook invoked for every sheet cell the binding writes; the Interface
  /// Manager uses it to keep the formula engine's dirty set exact even when
  /// sheet events are suppressed (mid-recalculation refreshes).
  void set_cell_written_hook(std::function<void(int64_t, int64_t)> hook) {
    cell_written_hook_ = std::move(hook);
  }

  /// Writes the header row (skipping the anchor cell itself, whose value is
  /// delivered through the formula result).
  Status WriteHeader();

  /// Slides the materialized window to positions [start, start+count),
  /// clearing cells of the previously materialized span.
  Status SetWindow(size_t start, size_t count);

  /// Re-fetches the whole current window from the table.
  Status RefreshWindow();

  /// Records one table delta against the materialized window (DESIGN.md
  /// §9) and returns true when it left work for RefreshPending — the
  /// caller then queues that refresh. A rid-addressed update inside the
  /// window marks one cell; an insert/delete at position p marks the rows
  /// from p down (or the whole window when p is above it); schema and bulk
  /// changes mark the whole window. Changes the window cannot show record
  /// nothing.
  bool NoteChange(const TableChange& change);

  /// Rewrites what NoteChange recorded since the last refresh, and nothing
  /// else.
  Status RefreshPending();

  /// Clears every cell the binding materialized (used on unbind).
  Status ClearMaterialized();

  /// Translates a front-end edit at (row, col) into a database mutation:
  /// data cells become keyed UPDATEs (positional when the table has no
  /// primary key); header cells become column renames.
  Status ApplyFrontEndEdit(int64_t row, int64_t col, const Value& v);

  /// Number of window refreshes performed (observability for benches).
  uint64_t refreshes() const { return refreshes_; }

 private:
  /// Writes table positions [start, start+count) — inside the current,
  /// clipped window — to the sheet and records their row ids.
  Status WriteRows(size_t start, size_t count);
  Status ClearRows(size_t start, size_t count);
  /// Re-materializes the window from position `from` (>= window_start_)
  /// down, after inserts/deletes at or below it; clears rows the window
  /// lost.
  Status RewriteFrom(size_t from);
  /// The configured span: what the window shows when the table is big enough.
  size_t span() const {
    return requested_count_ > 0 ? requested_count_ : default_window_;
  }
  void ClearPending();
  void WroteCell(int64_t row, int64_t col) {
    if (cell_written_hook_) cell_written_hook_(row, col);
  }

  int id_;
  Sheet* sheet_;
  int64_t anchor_row_, anchor_col_;
  Table* table_;
  Database* db_;
  size_t window_start_ = 0;
  size_t window_count_ = 0;    // rows currently materialized (clipped)
  size_t requested_count_ = 0; // configured span; grows with the table
  size_t default_window_;
  uint64_t refreshes_ = 0;
  // Row id at each materialized position: window_rids_[i] is the row shown
  // at table position window_start_ + i.
  std::vector<uint64_t> window_rids_;
  // Work recorded by NoteChange for RefreshPending.
  static constexpr size_t kNoShift = static_cast<size_t>(-1);
  bool pending_full_ = false;
  size_t pending_from_ = kNoShift;  // first position shifted by an insert/delete
  std::vector<std::pair<uint64_t, size_t>> pending_cells_;  // (rid, column)
  std::function<void(int64_t, int64_t)> cell_written_hook_;
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_BINDING_H_
