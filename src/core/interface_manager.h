#ifndef DATASPREAD_CORE_INTERFACE_MANAGER_H_
#define DATASPREAD_CORE_INTERFACE_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/binding.h"
#include "core/maintained_aggregate.h"
#include "core/scheduler.h"
#include "core/schema_infer.h"
#include "db/database.h"
#include "formula/engine.h"
#include "sheet/workbook.h"

namespace dataspread {

/// The paper's **Interface Manager** (§3) — the component that makes the
/// database interface-aware. It owns:
///
///  - *contexts*: every displayed relational artifact (a `DBTABLE` region or
///    a `DBSQL` spill) is registered with its sheet + positional address;
///  - *positional addressing for SQL*: `RANGEVALUE`/`RANGETABLE` are resolved
///    against the sheet relative to the querying cell (SheetResolver);
///  - *two-way synchronization*: front-end edits inside bound regions become
///    keyed UPDATEs; back-end changes refresh bound regions and re-run
///    dependent `DBSQL` cells;
///  - *shared computation* (§3 Compute Engine): identical `DBSQL` queries
///    whose inputs have not changed are served from a result cache keyed by
///    resolved SQL and stamped with each referenced table's identity
///    (incarnation) and version;
///  - *incremental sync* (DESIGN.md §9): each table delta is applied to the
///    bound windows and to the cached results of eligible aggregate
///    queries, so an edit costs O(change), not O(table).
class InterfaceManager : public formula::ExternalFormulaHandler {
 public:
  InterfaceManager(Workbook* workbook, Database* db,
                   formula::FormulaEngine* engine, Scheduler* scheduler,
                   size_t default_window = 256);
  ~InterfaceManager() override;

  // ---- Figure 2b: export / import ----

  /// Creates a relational table from a sheet range with inferred schema.
  /// `key_column` (optional, case-insensitive) marks the PRIMARY KEY.
  Result<Table*> CreateTableFromRange(Sheet* sheet, const RangeRef& range,
                                      const std::string& table_name,
                                      HeaderMode mode = HeaderMode::kAuto,
                                      const std::string& key_column = "");

  /// Binds `table_name` to a region anchored at (anchor_row, anchor_col):
  /// the programmatic form of entering `=DBTABLE("name")`.
  Result<TableBinding*> BindTable(Sheet* sheet, int64_t anchor_row,
                                  int64_t anchor_col,
                                  const std::string& table_name,
                                  size_t window = 0);

  Status Unbind(int binding_id);

  /// The binding whose region contains the cell, or nullptr.
  TableBinding* FindBindingAt(const Sheet* sheet, int64_t row,
                              int64_t col) const;
  const std::vector<std::unique_ptr<TableBinding>>& bindings() const {
    return bindings_;
  }
  /// The binding with `binding_id`, or nullptr once it is unbound. Queued
  /// tasks look their binding up through here instead of holding a pointer
  /// an Unbind could free.
  TableBinding* FindBinding(int binding_id) const;

  // ---- Two-way sync: front-end half ----

  /// Routes a user edit; returns true if the cell belonged to a binding and
  /// was translated into a database mutation.
  Result<bool> RouteFrontEndEdit(Sheet* sheet, int64_t row, int64_t col,
                                 const Value& v);

  // ---- ExternalFormulaHandler (DBSQL / DBTABLE) ----

  Status AnalyzeDependencies(Sheet* sheet, int64_t row, int64_t col,
                             const formula::FExpr& root,
                             std::vector<formula::CellDep>* cells,
                             std::vector<formula::RangeDep>* ranges) override;
  Value EvaluateHybrid(Sheet* sheet, int64_t row, int64_t col,
                       const formula::FExpr& root) override;

  /// Resolver for RANGEVALUE/RANGETABLE with `anchor_sheet` as the default
  /// sheet (may be null: only sheet-qualified references resolve).
  std::unique_ptr<ExternalResolver> MakeResolver(Sheet* anchor_sheet) const;

  // ---- Visibility probe (set by the Window Manager) ----

  using VisibilityProbe = std::function<bool(const Sheet*, int64_t, int64_t,
                                             int64_t, int64_t)>;
  void set_visibility_probe(VisibilityProbe probe) {
    visibility_probe_ = std::move(probe);
  }

  // ---- Observability ----

  uint64_t dbsql_executions() const { return dbsql_executions_; }
  uint64_t dbsql_cache_hits() const { return dbsql_cache_hits_; }
  uint64_t backend_refreshes() const { return backend_refreshes_; }

 private:
  /// Which table (by identity, not just name) and which version of it a
  /// cached result reflects.
  struct TableStamp {
    std::string name;  // lower-cased
    uint64_t incarnation = 0;
    uint64_t version = 0;
  };
  struct DbsqlCache {
    ResultSet result;
    std::vector<TableStamp> tables;
    /// Non-null while the result is maintained from table deltas.
    std::unique_ptr<MaintainedAggregate> agg;
  };
  struct SpillExtent {
    int64_t rows = 0;
    int64_t cols = 0;
  };

  void OnTableChanged(const std::string& table_name, const TableChange& change);
  /// Folds `change` into the maintained entries on `table_key`, stamping
  /// the new table version; entries that cannot fold it lose their state
  /// and go stale (re-executed on next evaluation).
  void FoldIntoMaintained(const std::string& table_key,
                          const TableChange& change);
  /// True when every stamped table still has the stamped identity+version.
  bool Fresh(const DbsqlCache& entry) const;
  /// Seeds an incremental state for a freshly executed entry cached under
  /// `sql` when the query is an eligible single-table aggregate and the
  /// seed reproduces the executed result exactly.
  void MaybeMaintain(const std::string& sql, DbsqlCache* entry);
  Value EvaluateDbsql(Sheet* sheet, int64_t row, int64_t col,
                      const formula::FExpr& root);
  Value EvaluateDbtable(Sheet* sheet, int64_t row, int64_t col,
                        const formula::FExpr& root);
  /// Evaluates a formula argument to a scalar (usually a literal string).
  Value EvalArg(Sheet* sheet, int64_t row, int64_t col,
                const formula::FExpr& arg);
  /// Writes a DBSQL result block anchored at (row, col); returns the anchor
  /// value. Clears stale cells from the previous spill.
  Value WriteSpill(Sheet* sheet, int64_t row, int64_t col,
                   const ResultSet& result);
  bool RegionVisible(const Sheet* sheet, int64_t r0, int64_t c0, int64_t r1,
                     int64_t c1) const;

  Workbook* workbook_;
  Database* db_;
  formula::FormulaEngine* engine_;
  Scheduler* scheduler_;
  size_t default_window_;
  int db_listener_token_ = 0;
  int next_binding_id_ = 1;
  std::vector<std::unique_ptr<TableBinding>> bindings_;
  std::unordered_map<std::string, DbsqlCache> dbsql_cache_;
  // Cache keys of maintained entries, by referenced table (lower-cased).
  std::unordered_map<std::string, std::vector<std::string>> maintained_;
  std::unordered_map<formula::CellKey, SpillExtent, formula::CellKeyHash>
      spills_;
  // DBSQL anchors by referenced table (lower-cased) for invalidation.
  std::unordered_map<std::string, std::vector<formula::CellKey>>
      anchors_by_table_;
  VisibilityProbe visibility_probe_;
  uint64_t dbsql_executions_ = 0;
  uint64_t dbsql_cache_hits_ = 0;
  uint64_t backend_refreshes_ = 0;
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_INTERFACE_MANAGER_H_
