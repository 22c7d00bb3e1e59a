#include "core/maintained_aggregate.h"

#include <variant>

#include "exec/binder.h"
#include "exec/expr_eval.h"
#include "sql/parser.h"

namespace dataspread {

namespace {

void MarkColumns(const sql::Expr* e, std::vector<bool>* columns) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kColumnRef && e->bound_column >= 0 &&
      static_cast<size_t>(e->bound_column) < columns->size()) {
    (*columns)[static_cast<size_t>(e->bound_column)] = true;
  }
  for (const sql::ExprPtr& a : e->args) MarkColumns(a.get(), columns);
}

/// The shape test, before binding: bare aggregate items over one named
/// table, nothing that reorders, groups, trims or joins the single row.
bool EligibleShape(const sql::SelectStmt& s) {
  if (s.distinct || !s.from.has_value() ||
      s.from->kind != sql::TableRef::Kind::kNamed || !s.joins.empty() ||
      !s.group_by.empty() || s.having != nullptr || !s.order_by.empty() ||
      s.limit.has_value() || s.offset.has_value() || s.items.empty()) {
    return false;
  }
  for (const sql::SelectItem& item : s.items) {
    if (item.star || item.expr == nullptr) return false;
    const sql::Expr& e = *item.expr;
    if (e.kind != sql::ExprKind::kFunction || !sql::IsAggregateFunction(e.op)) {
      return false;
    }
    if (!e.star && (e.args.size() != 1 || sql::ContainsAggregate(*e.args[0]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<MaintainedAggregate> MaintainedAggregate::Build(
    std::string_view sql, Catalog& catalog) {
  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) return nullptr;
  auto* select = std::get_if<sql::SelectStmt>(&parsed.value());
  if (select == nullptr || !EligibleShape(*select)) return nullptr;

  std::unique_ptr<MaintainedAggregate> agg(new MaintainedAggregate());
  agg->stmt_ = std::move(*select);
  sql::SelectStmt& stmt = agg->stmt_;
  // No resolver: RANGEVALUE/RANGETABLE fail to bind, which keeps them out.
  auto source = BindTableRef(*stmt.from, catalog, nullptr);
  if (!source.ok() || source.value().table == nullptr) return nullptr;
  Scope scope;
  AppendToScope(source.value(), &scope);
  if (stmt.where != nullptr &&
      !BindExpr(stmt.where.get(), scope, nullptr, /*allow_aggregates=*/false)
           .ok()) {
    return nullptr;
  }
  agg->referenced_.assign(source.value().num_columns(), false);
  MarkColumns(stmt.where.get(), &agg->referenced_);
  for (sql::SelectItem& item : stmt.items) {
    if (!BindExpr(item.expr.get(), scope, nullptr, /*allow_aggregates=*/true)
             .ok()) {
      return nullptr;
    }
    MarkColumns(item.expr.get(), &agg->referenced_);
    // A non-INT column under SUM/AVG/MIN/MAX could never fold exactly;
    // refuse it here rather than after a wasted seed scan.
    const sql::Expr& call = *item.expr;
    if (call.op != "COUNT" && call.args[0]->kind == sql::ExprKind::kColumnRef &&
        source.value().table->schema().column(
            static_cast<size_t>(call.args[0]->bound_column)).type !=
            DataType::kInt) {
      return nullptr;
    }
    agg->states_.emplace_back(item.expr.get());
  }
  return agg;
}

bool MaintainedAggregate::Seed(const Table& table) {
  // Only referenced columns are copied; the rest stay NULL and unread.
  Row scratch(referenced_.size());
  bool ok = true;
  Status s = table.VisitWindow(
      0, table.num_rows(), [&](size_t, const Value* values) {
        if (!ok) return;
        for (size_t c = 0; c < scratch.size(); ++c) {
          if (referenced_[c]) scratch[c] = values[c];
        }
        ok = Fold(scratch, /*add=*/true);
      });
  return s.ok() && ok;
}

bool MaintainedAggregate::Apply(const TableChange& change) {
  switch (change.kind) {
    case TableChange::Kind::kInsert: {
      auto row = change.table->GetRowById(change.rid);
      return row.ok() && Fold(row.value(), /*add=*/true);
    }
    case TableChange::Kind::kDelete:
      return change.before.size() == referenced_.size() &&
             Fold(change.before, /*add=*/false);
    case TableChange::Kind::kUpdate: {
      if (change.column >= referenced_.size()) return false;
      if (!referenced_[change.column]) return true;  // no input moved
      auto after = change.table->GetRowById(change.rid);
      if (!after.ok()) return false;
      Row before = after.value();
      before[change.column] = change.old_value;
      return Fold(before, /*add=*/false) && Fold(after.value(), /*add=*/true);
    }
    case TableChange::Kind::kSchema:
    case TableChange::Kind::kBulk:
    case TableChange::Kind::kDrop:
      break;
  }
  return false;
}

bool MaintainedAggregate::Fold(const Row& row, bool add) {
  if (stmt_.where != nullptr) {
    auto pass = EvalPredicate(*stmt_.where, &row);
    if (!pass.ok()) return false;
    if (!pass.value()) return true;
  }
  for (size_t i = 0; i < states_.size(); ++i) {
    AggState& state = states_[i];
    if (!state.needs_arg()) {
      add ? state.UpdateStar() : state.RetractStar();
      continue;
    }
    auto v = EvalScalar(*stmt_.items[i].expr->args[0], &row);
    if (!v.ok()) return false;
    if (add) {
      if (!state.FoldsExactly(v.value()) || !state.UpdateValue(v.value()).ok()) {
        return false;
      }
    } else if (!state.Retract(v.value())) {
      return false;
    }
  }
  return true;
}

Row MaintainedAggregate::Finalize() const {
  Row out;
  out.reserve(states_.size());
  for (const AggState& state : states_) out.push_back(state.Finalize());
  return out;
}

}  // namespace dataspread
