#include "core/interface_manager.h"

#include <algorithm>

#include "common/str_util.h"
#include "sql/parser.h"

namespace dataspread {

namespace {

/// ExternalResolver that reads the workbook. RANGEVALUE("B1") resolves on
/// `anchor_sheet` unless the reference is sheet-qualified — this is the
/// *context* the paper assigns to every displayed item.
class SheetResolver : public ExternalResolver {
 public:
  SheetResolver(const Workbook* workbook, Sheet* anchor_sheet)
      : workbook_(workbook), anchor_(anchor_sheet) {}

  Result<Value> ResolveRangeValue(const std::string& ref) override {
    DS_ASSIGN_OR_RETURN(CellRef cell, ParseCellRef(ref));
    DS_ASSIGN_OR_RETURN(Sheet * sheet, ResolveSheet(cell.sheet));
    return sheet->GetValue(cell.row, cell.col);
  }

  Result<RangeTableData> ResolveRangeTable(const std::string& ref) override {
    DS_ASSIGN_OR_RETURN(RangeRef range, ParseRangeRef(ref));
    DS_ASSIGN_OR_RETURN(Sheet * sheet, ResolveSheet(range.sheet));
    DS_ASSIGN_OR_RETURN(InferredTable inferred,
                        InferTableFromRange(*sheet, range));
    RangeTableData data;
    for (const ColumnDef& c : inferred.schema.columns()) {
      data.columns.push_back(c.name);
    }
    data.rows = std::move(inferred.rows);
    return data;
  }

 private:
  Result<Sheet*> ResolveSheet(const std::string& name) {
    if (name.empty()) {
      if (anchor_ == nullptr) {
        return Status::InvalidArgument(
            "relative sheet reference outside a spreadsheet context");
      }
      return anchor_;
    }
    return workbook_->GetSheet(name);
  }

  const Workbook* workbook_;
  Sheet* anchor_;
};

/// Collects RANGEVALUE cell refs and RANGETABLE range refs from a SELECT.
void CollectExprRefs(const sql::Expr* e, std::vector<std::string>* cells) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kRangeValue) {
    cells->push_back(e->ref_text);
    return;
  }
  for (const sql::ExprPtr& a : e->args) CollectExprRefs(a.get(), cells);
}

void CollectSelectRefs(const sql::SelectStmt& stmt,
                       std::vector<std::string>* cells,
                       std::vector<std::string>* ranges,
                       std::vector<std::string>* tables) {
  if (stmt.from.has_value()) {
    if (stmt.from->kind == sql::TableRef::Kind::kRangeTable) {
      ranges->push_back(stmt.from->range_text);
    } else {
      tables->push_back(ToLower(stmt.from->name));
    }
  }
  for (const sql::JoinClause& j : stmt.joins) {
    if (j.table.kind == sql::TableRef::Kind::kRangeTable) {
      ranges->push_back(j.table.range_text);
    } else {
      tables->push_back(ToLower(j.table.name));
    }
    CollectExprRefs(j.on.get(), cells);
  }
  for (const sql::SelectItem& item : stmt.items) {
    CollectExprRefs(item.expr.get(), cells);
  }
  CollectExprRefs(stmt.where.get(), cells);
  for (const sql::ExprPtr& g : stmt.group_by) CollectExprRefs(g.get(), cells);
  CollectExprRefs(stmt.having.get(), cells);
  for (const sql::OrderItem& o : stmt.order_by) CollectExprRefs(o.expr.get(), cells);
}

}  // namespace

InterfaceManager::InterfaceManager(Workbook* workbook, Database* db,
                                   formula::FormulaEngine* engine,
                                   Scheduler* scheduler, size_t default_window)
    : workbook_(workbook),
      db_(db),
      engine_(engine),
      scheduler_(scheduler),
      default_window_(default_window) {
  db_listener_token_ = db_->AddChangeListener(
      [this](const std::string& table, const TableChange& change) {
        OnTableChanged(table, change);
      });
  engine_->set_external_handler(this);
}

InterfaceManager::~InterfaceManager() {
  db_->RemoveChangeListener(db_listener_token_);
  engine_->set_external_handler(nullptr);
}

// ---------------------------------------------------------------------------
// Export / import (Figure 2b)
// ---------------------------------------------------------------------------

Result<Table*> InterfaceManager::CreateTableFromRange(
    Sheet* sheet, const RangeRef& range, const std::string& table_name,
    HeaderMode mode, const std::string& key_column) {
  DS_ASSIGN_OR_RETURN(InferredTable inferred,
                      InferTableFromRange(*sheet, range, mode));
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
  DS_ASSIGN_OR_RETURN(Table * table, db_->CreateTable(table_name, schema));
  table->ReserveRows(inferred.rows.size());
  for (Row& row : inferred.rows) {
    Status s = table->AppendRow(std::move(row));
    if (!s.ok()) {
      (void)db_->catalog().DropTable(table_name);
      return s;
    }
  }
  return table;
}

Result<TableBinding*> InterfaceManager::BindTable(Sheet* sheet,
                                                  int64_t anchor_row,
                                                  int64_t anchor_col,
                                                  const std::string& table_name,
                                                  size_t window) {
  DS_ASSIGN_OR_RETURN(Table * table, db_->catalog().GetTable(table_name));
  auto binding = std::make_unique<TableBinding>(
      next_binding_id_++, sheet, anchor_row, anchor_col, table, db_,
      window == 0 ? default_window_ : window);
  TableBinding* raw = binding.get();
  raw->set_cell_written_hook([this, sheet](int64_t r, int64_t c) {
    engine_->MarkDirty(sheet, r, c);
  });
  bindings_.push_back(std::move(binding));
  DS_RETURN_IF_ERROR(raw->WriteHeader());
  DS_RETURN_IF_ERROR(raw->SetWindow(0, window));
  return raw;
}

Status InterfaceManager::Unbind(int binding_id) {
  for (auto it = bindings_.begin(); it != bindings_.end(); ++it) {
    if ((*it)->id() == binding_id) {
      DS_RETURN_IF_ERROR((*it)->ClearMaterialized());
      bindings_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no binding with id " + std::to_string(binding_id));
}

TableBinding* InterfaceManager::FindBinding(int binding_id) const {
  for (const auto& b : bindings_) {
    if (b->id() == binding_id) return b.get();
  }
  return nullptr;
}

TableBinding* InterfaceManager::FindBindingAt(const Sheet* sheet, int64_t row,
                                              int64_t col) const {
  for (const auto& b : bindings_) {
    if (b->ContainsCell(sheet, row, col)) return b.get();
  }
  return nullptr;
}

Result<bool> InterfaceManager::RouteFrontEndEdit(Sheet* sheet, int64_t row,
                                                 int64_t col, const Value& v) {
  TableBinding* binding = FindBindingAt(sheet, row, col);
  if (binding == nullptr) return false;
  DS_RETURN_IF_ERROR(binding->ApplyFrontEndEdit(row, col, v));
  return true;
}

// ---------------------------------------------------------------------------
// Back-end half of two-way sync
// ---------------------------------------------------------------------------

bool InterfaceManager::RegionVisible(const Sheet* sheet, int64_t r0, int64_t c0,
                                     int64_t r1, int64_t c1) const {
  if (!visibility_probe_) return true;  // no window manager: treat as visible
  return visibility_probe_(sheet, r0, c0, r1, c1);
}

void InterfaceManager::OnTableChanged(const std::string& table_name,
                                      const TableChange& change) {
  backend_refreshes_ += 1;
  std::string key = ToLower(table_name);
  // 1. Bindings on this table record the delta; those it left work for
  //    queue a refresh (coalesced per binding).
  std::vector<int> dropped;
  for (const auto& b : bindings_) {
    if (b->table() != change.table) continue;
    TableBinding* raw = b.get();
    if (change.kind == TableChange::Kind::kDrop) {
      dropped.push_back(raw->id());
      continue;
    }
    if (!raw->NoteChange(change)) continue;
    int64_t r0 = raw->anchor_row();
    int64_t r1 = raw->data_row() + static_cast<int64_t>(raw->window_count());
    bool visible = RegionVisible(raw->sheet(), r0, raw->anchor_col(), r1,
                                 raw->anchor_col() +
                                     static_cast<int64_t>(
                                         raw->table()->schema().num_columns()));
    scheduler_->EnqueueUnique(
        visible ? Priority::kVisible : Priority::kBackground,
        "binding-refresh-" + std::to_string(raw->id()),
        [this, id = raw->id()]() {
          if (TableBinding* b = FindBinding(id)) (void)b->RefreshPending();
        });
  }
  // The table dies right after this callback: unbind its regions, and let
  // each `=DBTABLE` anchor re-evaluate (it rebinds or reports #NAME?).
  for (int id : dropped) {
    TableBinding* b = FindBinding(id);
    engine_->MarkDirty(b->sheet(), b->anchor_row(), b->anchor_col());
    (void)Unbind(id);
  }
  if (!dropped.empty()) {
    formula::FormulaEngine* engine = engine_;
    scheduler_->EnqueueUnique(Priority::kNear, "recalc-dirty",
                              [engine]() { (void)engine->RecalcDirty(); });
  }
  // 2. Maintained aggregates fold the delta, so their anchors hit the cache.
  if (maintained_.count(key) > 0) FoldIntoMaintained(key, change);
  // 3. Dirty DBSQL anchors that referenced this table and queue a recalc.
  auto it = anchors_by_table_.find(key);
  if (it != anchors_by_table_.end()) {
    for (const formula::CellKey& anchor : it->second) {
      engine_->MarkDirty(anchor.sheet, anchor.row, anchor.col);
    }
    if (!it->second.empty()) {
      formula::FormulaEngine* engine = engine_;
      scheduler_->EnqueueUnique(Priority::kNear, "recalc-dirty",
                                [engine]() { (void)engine->RecalcDirty(); });
    }
  }
}

void InterfaceManager::FoldIntoMaintained(const std::string& table_key,
                                          const TableChange& change) {
  std::vector<std::string>& keys = maintained_[table_key];
  const Table& table = *change.table;
  for (auto k = keys.begin(); k != keys.end();) {
    auto entry = dbsql_cache_.find(*k);
    bool kept = entry != dbsql_cache_.end() && entry->second.agg != nullptr;
    if (kept) {
      DbsqlCache& e = entry->second;
      TableStamp& stamp = e.tables.front();
      // A version gap (a change this entry never saw) or another table
      // under the same name (DROP + CREATE) ends maintenance.
      kept = stamp.incarnation == table.incarnation() &&
             stamp.version + 1 == table.version() && e.agg->Apply(change);
      if (kept) {
        e.result.rows.front() = e.agg->Finalize();
        stamp.version = table.version();
      } else {
        e.agg.reset();  // stale from here: the next evaluation re-executes
      }
    }
    k = kept ? k + 1 : keys.erase(k);
  }
  if (keys.empty()) maintained_.erase(table_key);
}

bool InterfaceManager::Fresh(const DbsqlCache& entry) const {
  for (const TableStamp& stamp : entry.tables) {
    auto table = db_->catalog().GetTable(stamp.name);
    if (!table.ok() || table.value()->incarnation() != stamp.incarnation ||
        table.value()->version() != stamp.version) {
      return false;
    }
  }
  return true;
}

void InterfaceManager::MaybeMaintain(const std::string& sql,
                                     DbsqlCache* entry) {
  if (entry->tables.size() != 1 || entry->result.rows.size() != 1) return;
  auto table = db_->catalog().GetTable(entry->tables.front().name);
  if (!table.ok()) return;
  auto agg = MaintainedAggregate::Build(sql, db_->catalog());
  if (agg == nullptr || !agg->Seed(*table.value())) return;
  // The seed must reproduce what Execute returned, value and type.
  Row seeded = agg->Finalize();
  const Row& executed = entry->result.rows.front();
  if (seeded.size() != executed.size()) return;
  for (size_t i = 0; i < seeded.size(); ++i) {
    if (seeded[i].type() != executed[i].type() || seeded[i] != executed[i]) {
      return;
    }
  }
  entry->agg = std::move(agg);
  std::vector<std::string>& keys = maintained_[entry->tables.front().name];
  if (std::find(keys.begin(), keys.end(), sql) == keys.end()) {
    keys.push_back(sql);
  }
}

// ---------------------------------------------------------------------------
// DBSQL / DBTABLE
// ---------------------------------------------------------------------------

std::unique_ptr<ExternalResolver> InterfaceManager::MakeResolver(
    Sheet* anchor_sheet) const {
  return std::make_unique<SheetResolver>(workbook_, anchor_sheet);
}

Value InterfaceManager::EvalArg(Sheet* sheet, int64_t row, int64_t col,
                                const formula::FExpr& arg) {
  (void)row;
  (void)col;
  if (arg.kind == formula::FKind::kLiteral) return arg.literal;
  auto v = engine_->EvaluateImmediate(sheet, "=" + arg.ToText(), row, col);
  if (!v.ok()) return Value::Error("#VALUE!");
  return std::move(v).value();
}

Status InterfaceManager::AnalyzeDependencies(
    Sheet* sheet, int64_t row, int64_t col, const formula::FExpr& root,
    std::vector<formula::CellDep>* cells,
    std::vector<formula::RangeDep>* ranges) {
  (void)row;
  (void)col;
  if (root.op == "DBTABLE") return Status::OK();  // table-only precedents
  if (root.args.empty() || root.args[0]->kind != formula::FKind::kLiteral ||
      root.args[0]->literal.type() != DataType::kText) {
    return Status::OK();  // dynamic SQL text: dependencies unknown
  }
  auto parsed = sql::Parse(root.args[0]->literal.text_value());
  if (!parsed.ok()) return Status::OK();  // surfaced at evaluation time
  auto* select = std::get_if<sql::SelectStmt>(&parsed.value());
  if (select == nullptr) return Status::OK();
  std::vector<std::string> cell_refs, range_refs, tables;
  CollectSelectRefs(*select, &cell_refs, &range_refs, &tables);
  for (const std::string& ref : cell_refs) {
    auto parsed_ref = ParseCellRef(ref);
    if (!parsed_ref.ok()) continue;
    Sheet* target = sheet;
    if (!parsed_ref.value().sheet.empty()) {
      auto s = workbook_->GetSheet(parsed_ref.value().sheet);
      if (!s.ok()) continue;
      target = s.value();
    }
    cells->push_back(formula::CellDep{target, parsed_ref.value().row,
                                      parsed_ref.value().col});
  }
  for (const std::string& ref : range_refs) {
    auto parsed_ref = ParseRangeRef(ref);
    if (!parsed_ref.ok()) continue;
    Sheet* target = sheet;
    if (!parsed_ref.value().sheet.empty()) {
      auto s = workbook_->GetSheet(parsed_ref.value().sheet);
      if (!s.ok()) continue;
      target = s.value();
    }
    ranges->push_back(formula::RangeDep{
        target, parsed_ref.value().start.row, parsed_ref.value().start.col,
        parsed_ref.value().end.row, parsed_ref.value().end.col});
  }
  return Status::OK();
}

Value InterfaceManager::WriteSpill(Sheet* sheet, int64_t row, int64_t col,
                                   const ResultSet& result) {
  formula::CellKey anchor{sheet, row, col};
  SpillExtent previous = spills_[anchor];
  int64_t out_rows = static_cast<int64_t>(result.rows.size());
  int64_t out_cols = static_cast<int64_t>(result.columns.size());
  // Write the block; the anchor cell itself is delivered via return value.
  for (int64_t r = 0; r < out_rows; ++r) {
    for (int64_t c = 0; c < out_cols; ++c) {
      if (r == 0 && c == 0) continue;
      const Value& v = result.rows[static_cast<size_t>(r)][static_cast<size_t>(c)];
      (void)sheet->SetValue(row + r, col + c, v);
      engine_->MarkDirty(sheet, row + r, col + c);
    }
  }
  // Clear cells from the previous spill not covered anymore.
  for (int64_t r = 0; r < previous.rows; ++r) {
    for (int64_t c = 0; c < previous.cols; ++c) {
      if (r < out_rows && c < out_cols) continue;
      if (r == 0 && c == 0) continue;
      (void)sheet->ClearCell(row + r, col + c);
      engine_->MarkDirty(sheet, row + r, col + c);
    }
  }
  spills_[anchor] = SpillExtent{out_rows, out_cols};
  if (result.rows.empty() || result.rows[0].empty()) {
    return Value::Text("(0 rows)");
  }
  return result.rows[0][0];
}

Value InterfaceManager::EvaluateDbsql(Sheet* sheet, int64_t row, int64_t col,
                                      const formula::FExpr& root) {
  if (root.args.empty()) return Value::Error("#VALUE!");
  Value sql_text = EvalArg(sheet, row, col, *root.args[0]);
  if (sql_text.is_error()) return sql_text;
  if (sql_text.type() != DataType::kText) return Value::Error("#VALUE!");
  const std::string& sql = sql_text.text_value();

  // Referenced tables + referenced-cell snapshot form the cache key.
  std::vector<std::string> cell_refs, range_refs, tables;
  {
    auto parsed = sql::Parse(sql);
    if (!parsed.ok()) return Value::Error("#VALUE!");
    auto* select = std::get_if<sql::SelectStmt>(&parsed.value());
    if (select == nullptr) {
      return Value::Error("#VALUE!");  // DBSQL is read-only (SELECT)
    }
    CollectSelectRefs(*select, &cell_refs, &range_refs, &tables);
  }
  SheetResolver resolver(workbook_, sheet);
  std::string cache_key = sql;
  for (const std::string& ref : cell_refs) {
    auto v = resolver.ResolveRangeValue(ref);
    cache_key += "|" + (v.ok() ? v.value().ToSqlLiteral() : "?");
  }
  for (const std::string& ref : range_refs) {
    // Range contents are hashed coarsely via the sheet's cell count; exact
    // invalidation comes from the formula-engine range dependencies.
    cache_key += "|" + ref;
  }

  // Register this anchor for table-change invalidation.
  formula::CellKey anchor{sheet, row, col};
  for (const std::string& t : tables) {
    auto& anchors = anchors_by_table_[t];
    if (std::find(anchors.begin(), anchors.end(), anchor) == anchors.end()) {
      anchors.push_back(anchor);
    }
  }

  auto cached = dbsql_cache_.find(cache_key);
  if (cached != dbsql_cache_.end()) {
    if (range_refs.empty() && Fresh(cached->second)) {
      // Shared computation: identical query, identical inputs.
      dbsql_cache_hits_ += 1;
      return WriteSpill(sheet, row, col, cached->second.result);
    }
    dbsql_cache_.erase(cached);
  }

  auto result = db_->Execute(sql, &resolver);
  dbsql_executions_ += 1;
  if (!result.ok()) return Value::Error("#VALUE!");

  DbsqlCache entry;
  entry.result = std::move(result).value();
  for (const std::string& t : tables) {
    auto table = db_->catalog().GetTable(t);
    if (table.ok()) {
      entry.tables.push_back(TableStamp{t, table.value()->incarnation(),
                                        table.value()->version()});
    }
  }
  if (cell_refs.empty() && range_refs.empty()) {
    MaybeMaintain(sql, &entry);  // no cell values: the key is the SQL text
  }
  Value anchor_value = WriteSpill(sheet, row, col, entry.result);
  dbsql_cache_[cache_key] = std::move(entry);
  return anchor_value;
}

Value InterfaceManager::EvaluateDbtable(Sheet* sheet, int64_t row, int64_t col,
                                        const formula::FExpr& root) {
  if (root.args.empty()) return Value::Error("#VALUE!");
  Value name_v = EvalArg(sheet, row, col, *root.args[0]);
  if (name_v.type() != DataType::kText) return Value::Error("#VALUE!");
  const std::string& table_name = name_v.text_value();
  size_t window = 0;
  if (root.args.size() >= 2) {
    Value w = EvalArg(sheet, row, col, *root.args[1]);
    auto wi = w.AsInt();
    if (wi.ok() && wi.value() > 0) window = static_cast<size_t>(wi.value());
  }

  // Reuse an existing binding anchored here (re-evaluation path).
  for (const auto& b : bindings_) {
    if (b->sheet() == sheet && b->anchor_row() == row &&
        b->anchor_col() == col) {
      if (EqualsIgnoreCase(b->table()->name(), table_name)) {
        (void)b->RefreshWindow();
        (void)b->WriteHeader();
        return Value::Text(b->table()->schema().num_columns() > 0
                               ? b->table()->schema().column(0).name
                               : table_name);
      }
      (void)Unbind(b->id());
      break;
    }
  }
  auto binding = BindTable(sheet, row, col, table_name, window);
  if (!binding.ok()) return Value::Error("#NAME?");
  const Schema& schema = binding.value()->table()->schema();
  return Value::Text(schema.num_columns() > 0 ? schema.column(0).name
                                              : table_name);
}

Value InterfaceManager::EvaluateHybrid(Sheet* sheet, int64_t row, int64_t col,
                                       const formula::FExpr& root) {
  if (root.op == "DBSQL") return EvaluateDbsql(sheet, row, col, root);
  if (root.op == "DBTABLE") return EvaluateDbtable(sheet, row, col, root);
  return Value::Error("#NAME?");
}

}  // namespace dataspread
