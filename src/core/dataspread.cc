#include "core/dataspread.h"

#include "io/csv.h"

namespace dataspread {

namespace {

/// Resolves DataSpreadOptions into the embedded database's options: a
/// non-empty `database_path` expands through Database::DurableOptions (the
/// one home of the `<path>.pages` + `<path>.wal` convention).
DatabaseOptions ResolveDbOptions(const DataSpreadOptions& options) {
  DatabaseOptions db;
  db.pager = options.pager;
  if (!options.database_path.empty()) {
    db = Database::DurableOptions(options.database_path, std::move(db));
  }
  return db;
}

}  // namespace

DataSpread::DataSpread(DataSpreadOptions options)
    : options_(std::move(options)), db_(ResolveDbOptions(options_)) {
  engine_ = std::make_unique<formula::FormulaEngine>(&workbook_);
  interface_manager_ = std::make_unique<InterfaceManager>(
      &workbook_, &db_, engine_.get(), &scheduler_, options_.binding_window);
  window_manager_ = std::make_unique<WindowManager>(
      interface_manager_.get(), engine_.get(), &scheduler_,
      options_.prefetch_margin);
  if (options_.background_compute) {
    scheduler_.StartWorker();
  }
}

DataSpread::~DataSpread() {
  // Stop the worker before members it references are torn down.
  scheduler_.StopWorker();
}

Result<Sheet*> DataSpread::AddSheet(const std::string& name) {
  DS_ASSIGN_OR_RETURN(Sheet * sheet, workbook_.AddSheet(name));
  engine_->AttachSheet(sheet);
  return sheet;
}

void DataSpread::ScheduleRecalc() {
  formula::FormulaEngine* engine = engine_.get();
  const Viewport& vp = window_manager_->viewport();
  if (vp.sheet != nullptr) {
    Viewport copy = vp;
    scheduler_.EnqueueUnique(Priority::kVisible, "recalc-window",
                             [engine, copy]() {
                               (void)engine->RecalcWindow(
                                   copy.sheet, copy.top, copy.left,
                                   copy.top + copy.rows - 1,
                                   copy.left + copy.cols - 1);
                             });
  }
  scheduler_.EnqueueUnique(Priority::kBackground, "recalc-dirty",
                           [engine]() { (void)engine->RecalcDirty(); });
}

Status DataSpread::SetCellAt(Sheet* sheet, int64_t row, int64_t col,
                             const std::string& input) {
  if (!input.empty() && input[0] == '=') {
    if (interface_manager_->FindBindingAt(sheet, row, col) != nullptr) {
      return Status::InvalidArgument(
          "cannot enter a formula inside a table-bound region");
    }
    DS_RETURN_IF_ERROR(sheet->SetFormula(row, col, input));
  } else {
    Value typed = Value::FromUserInput(input);
    DS_ASSIGN_OR_RETURN(bool handled, interface_manager_->RouteFrontEndEdit(
                                          sheet, row, col, typed));
    if (!handled) {
      DS_RETURN_IF_ERROR(sheet->SetValue(row, col, typed));
    }
  }
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Status DataSpread::SetCell(const std::string& sheet, const std::string& a1,
                           const std::string& input) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(CellRef ref, ParseCellRef(a1));
  return SetCellAt(s, ref.row, ref.col, input);
}

Result<Value> DataSpread::GetValue(const std::string& sheet,
                                   const std::string& a1) const {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(CellRef ref, ParseCellRef(a1));
  return s->GetValue(ref.row, ref.col);
}

Result<std::string> DataSpread::GetDisplay(const std::string& sheet,
                                           const std::string& a1) const {
  DS_ASSIGN_OR_RETURN(Value v, GetValue(sheet, a1));
  return v.ToDisplayString();
}

Result<ResultSet> DataSpread::Sql(std::string_view sql) {
  auto resolver = interface_manager_->MakeResolver(nullptr);
  auto result = db_.Execute(sql, resolver.get());
  // DML may have queued binding refreshes / recalcs.
  if (options_.auto_pump && !options_.background_compute) Pump();
  return result;
}

Result<Table*> DataSpread::CreateTableFromRange(const std::string& sheet,
                                                const std::string& range_a1,
                                                const std::string& table_name,
                                                const std::string& key_column,
                                                HeaderMode mode) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(RangeRef range, ParseRangeRef(range_a1));
  return interface_manager_->CreateTableFromRange(s, range, table_name, mode,
                                                  key_column);
}

Result<TableBinding*> DataSpread::ImportTable(const std::string& sheet,
                                              const std::string& anchor_a1,
                                              const std::string& table_name,
                                              size_t window) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(CellRef anchor, ParseCellRef(anchor_a1));
  std::string formula = "=DBTABLE(\"" + table_name + "\"";
  if (window > 0) formula += "," + std::to_string(window);
  formula += ")";
  DS_RETURN_IF_ERROR(SetCellAt(s, anchor.row, anchor.col, formula));
  if (!options_.auto_pump || options_.background_compute) {
    Pump();  // the binding materializes when the hybrid formula evaluates
  }
  // Probe the header row: it belongs to the region even for empty tables.
  TableBinding* binding =
      interface_manager_->FindBindingAt(s, anchor.row, anchor.col);
  if (binding == nullptr) {
    return Status::Internal("DBTABLE did not produce a binding (table '" +
                            table_name + "' missing?)");
  }
  return binding;
}

Status DataSpread::ImportCsv(const std::string& sheet,
                             const std::string& anchor_a1,
                             std::string_view csv_text) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(CellRef anchor, ParseCellRef(anchor_a1));
  DS_ASSIGN_OR_RETURN(std::vector<Row> rows, ParseCsv(csv_text));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      DS_RETURN_IF_ERROR(s->SetValue(anchor.row + static_cast<int64_t>(r),
                                     anchor.col + static_cast<int64_t>(c),
                                     rows[r][c]));
    }
  }
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Result<Table*> DataSpread::ImportCsvAsTable(std::string_view csv_text,
                                            const std::string& table_name,
                                            const std::string& key_column,
                                            HeaderMode mode) {
  DS_ASSIGN_OR_RETURN(std::vector<Row> rows, ParseCsv(csv_text));
  DS_ASSIGN_OR_RETURN(InferredTable inferred,
                      InferTableFromRows(std::move(rows), mode));
  Schema schema = inferred.schema;
  if (!key_column.empty()) {
    auto idx = schema.FindColumn(key_column);
    if (!idx) {
      return Status::NotFound("key column '" + key_column +
                              "' is not in the inferred schema (" +
                              schema.ToString() + ")");
    }
    std::vector<ColumnDef> cols = schema.columns();
    cols[*idx].primary_key = true;
    schema = Schema(std::move(cols));
  }
  DS_ASSIGN_OR_RETURN(Table * table, db_.CreateTable(table_name, schema));
  table->ReserveRows(inferred.rows.size());
  for (Row& row : inferred.rows) {
    Status s = table->AppendRow(std::move(row));
    if (!s.ok()) {
      (void)db_.catalog().DropTable(table_name);
      return s;
    }
  }
  return table;
}

Result<std::string> DataSpread::ExportCsv(const std::string& sheet,
                                          const std::string& range_a1) const {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(RangeRef range, ParseRangeRef(range_a1));
  std::vector<Row> rows(static_cast<size_t>(range.num_rows()),
                        Row(static_cast<size_t>(range.num_cols()),
                            Value::Null()));
  s->VisitRange(range.start.row, range.start.col, range.end.row, range.end.col,
                [&](int64_t r, int64_t c, const Cell& cell) {
                  rows[static_cast<size_t>(r - range.start.row)]
                      [static_cast<size_t>(c - range.start.col)] = cell.value;
                });
  return WriteCsv(rows);
}

Status DataSpread::InsertRows(const std::string& sheet, int64_t before,
                              int64_t count) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_RETURN_IF_ERROR(s->InsertRows(before, count));
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Status DataSpread::DeleteRows(const std::string& sheet, int64_t first,
                              int64_t count) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_RETURN_IF_ERROR(s->DeleteRows(first, count));
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Status DataSpread::InsertCols(const std::string& sheet, int64_t before,
                              int64_t count) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_RETURN_IF_ERROR(s->InsertCols(before, count));
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Status DataSpread::DeleteCols(const std::string& sheet, int64_t first,
                              int64_t count) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_RETURN_IF_ERROR(s->DeleteCols(first, count));
  ScheduleRecalc();
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

Status DataSpread::ScrollTo(const std::string& sheet, int64_t top_row,
                            int64_t left_col) {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  Viewport vp;
  vp.sheet = s;
  vp.top = top_row;
  vp.left = left_col;
  vp.rows = options_.viewport_rows;
  vp.cols = options_.viewport_cols;
  window_manager_->SetViewport(vp);
  if (options_.auto_pump && !options_.background_compute) Pump();
  return Status::OK();
}

void DataSpread::Pump() {
  // Tasks can mark new cells dirty without enqueuing follow-ups (e.g. DBSQL
  // spills); iterate until a fixpoint (bounded to survive self-reference).
  for (int iteration = 0; iteration < 64; ++iteration) {
    if (options_.background_compute) {
      scheduler_.WaitIdle();
    } else {
      scheduler_.RunUntilIdle();
    }
    if (engine_->dirty_count() == 0 && scheduler_.pending() == 0) return;
    formula::FormulaEngine* engine = engine_.get();
    scheduler_.EnqueueUnique(Priority::kBackground, "recalc-dirty",
                             [engine]() { (void)engine->RecalcDirty(); });
  }
}

Status DataSpread::RecalcNow() {
  for (int iteration = 0; iteration < 64; ++iteration) {
    DS_RETURN_IF_ERROR(engine_->RecalcDirty());
    if (engine_->dirty_count() == 0) return Status::OK();
  }
  return Status::Internal("recalculation did not converge");
}

Result<std::string> DataSpread::Show(const std::string& sheet,
                                     const std::string& range_a1) const {
  DS_ASSIGN_OR_RETURN(Sheet * s, workbook_.GetSheet(sheet));
  DS_ASSIGN_OR_RETURN(RangeRef range, ParseRangeRef(range_a1));
  std::string out;
  for (int64_t r = range.start.row; r <= range.end.row; ++r) {
    for (int64_t c = range.start.col; c <= range.end.col; ++c) {
      if (c > range.start.col) out += "\t";
      out += s->GetValue(r, c).ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace dataspread
