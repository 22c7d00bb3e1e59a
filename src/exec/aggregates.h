#ifndef DATASPREAD_EXEC_AGGREGATES_H_
#define DATASPREAD_EXEC_AGGREGATES_H_

#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// Finds every aggregate call site in `e` (depth-first), assigns each a dense
/// `aggregate_index`, and appends the node pointers to `calls`. Call sites
/// that already carry an index (shared subtrees) keep it.
void CollectAggregates(sql::Expr* e, std::vector<sql::Expr*>* calls);

/// Running state of one aggregate call over one group.
class AggState {
 public:
  /// `call` must outlive the state (it lives in the statement AST).
  explicit AggState(const sql::Expr* call) : call_(call) {}

  /// Folds one input row into the state (evaluates the call's argument).
  Status Update(const Row& input);

  /// True when the call consumes an argument value per row; false only for
  /// COUNT(*), which counts rows without evaluating anything.
  bool needs_arg() const { return !(call_->op == "COUNT" && call_->star); }

  /// Folds one precomputed argument value into the state — the batch
  /// pipeline's path: the argument expression is evaluated once per batch
  /// (vectorized), then folded value-by-value. For COUNT(*) (needs_arg()
  /// false) call UpdateStar() instead.
  Status UpdateValue(const Value& v);
  void UpdateStar() { ++count_; }

  /// True when folding `v` keeps the state exactly what re-running the
  /// aggregate would compute, in any fold order: NULLs, any value under
  /// COUNT, INT values otherwise. REAL sums depend on the order they are
  /// added in, and compare-equal extremes of different types (INT 1 vs
  /// REAL 1.0) on which arrives first, so a state that must stay
  /// bit-identical to re-execution refuses them.
  bool FoldsExactly(const Value& v) const;

  /// Removes one value folded earlier — the inverse of UpdateValue, for an
  /// incrementally maintained aggregate (DESIGN.md §9). Returns false, and
  /// leaves the state unusable, when the inverse is not exact: a value that
  /// does not FoldsExactly, or a value compare-equal to the current MIN/MAX
  /// extreme (the runner-up is unknown without a rescan).
  bool Retract(const Value& v);
  void RetractStar() { --count_; }

  /// Folds another partial state for the same call into this one — the
  /// morsel-parallel merge (DESIGN.md §6b). `this` must cover the earlier
  /// display-order rows: ties (MIN/MAX compare-equal extremes) keep this
  /// state's value, matching what serial row-order folding would have kept.
  void Merge(const AggState& other);

  /// Final value: COUNT → INT; SUM → INT/REAL (NULL on empty); AVG → REAL
  /// (NULL on empty); MIN/MAX → input type (NULL on empty).
  Value Finalize() const;

 private:
  const sql::Expr* call_;
  int64_t count_ = 0;        // non-null inputs (or all rows for COUNT(*))
  bool is_real_ = false;
  int64_t sum_int_ = 0;
  double sum_real_ = 0.0;
  bool has_extreme_ = false;
  Value extreme_;            // running MIN or MAX
};

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_AGGREGATES_H_
