#ifndef DATASPREAD_CORE_MAINTAINED_AGGREGATE_H_
#define DATASPREAD_CORE_MAINTAINED_AGGREGATE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "exec/aggregates.h"
#include "sql/ast.h"

namespace dataspread {

/// The running state of a DBSQL aggregate kept current from table deltas
/// instead of by re-running the query (DESIGN.md §9). Eligible shape:
///
///     SELECT agg(expr) [, agg(expr)]* FROM t [WHERE per-row predicate]
///
/// — every item a bare aggregate call, one base table, no GROUP BY, HAVING,
/// ORDER BY, DISTINCT, LIMIT/OFFSET, join or RANGEVALUE/RANGETABLE. Such a
/// query always yields exactly one row, and each table delta moves it by
/// retracting the before-row and folding the after-row.
///
/// The object owns the statement's bound AST (the AggStates point into it),
/// so it is only ever held behind a unique_ptr and never moved.
class MaintainedAggregate {
 public:
  /// Parses and binds `sql` against `catalog`; null when the statement is
  /// not an eligible shape or does not bind.
  static std::unique_ptr<MaintainedAggregate> Build(std::string_view sql,
                                                    Catalog& catalog);

  MaintainedAggregate(const MaintainedAggregate&) = delete;
  MaintainedAggregate& operator=(const MaintainedAggregate&) = delete;

  /// Folds every row of `table` (the one scan a cache miss pays). False when
  /// some input cannot be folded exactly (AggState::FoldsExactly).
  bool Seed(const Table& table);

  /// Folds one row-level delta of the table this aggregate reads. False
  /// when the delta is not foldable — kSchema/kBulk, a REAL input, the
  /// retraction of a MIN/MAX extreme — and the state must be dropped.
  bool Apply(const TableChange& change);

  /// The result row: one finalized value per SELECT item.
  Row Finalize() const;

 private:
  MaintainedAggregate() = default;

  /// Retracts (`add` false) or folds `row` if it passes the WHERE clause.
  bool Fold(const Row& row, bool add);

  sql::SelectStmt stmt_;
  std::vector<AggState> states_;
  std::vector<bool> referenced_;  // columns the WHERE or an argument reads
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_MAINTAINED_AGGREGATE_H_
