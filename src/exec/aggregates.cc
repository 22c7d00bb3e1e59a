#include "exec/aggregates.h"

#include "exec/expr_eval.h"

namespace dataspread {

void CollectAggregates(sql::Expr* e, std::vector<sql::Expr*>* calls) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kFunction && sql::IsAggregateFunction(e->op)) {
    if (e->aggregate_index < 0) {
      e->aggregate_index = static_cast<int>(calls->size());
      calls->push_back(e);
    }
    return;  // aggregate arguments are evaluated per input row, not nested
  }
  for (sql::ExprPtr& a : e->args) CollectAggregates(a.get(), calls);
}

Status AggState::Update(const Row& input) {
  if (!needs_arg()) {
    UpdateStar();
    return Status::OK();
  }
  DS_ASSIGN_OR_RETURN(Value v, EvalScalar(*call_->args[0], &input));
  return UpdateValue(v);
}

Status AggState::UpdateValue(const Value& v) {
  if (v.is_null()) return Status::OK();  // SQL aggregates skip NULLs
  ++count_;
  if (call_->op == "COUNT") return Status::OK();
  if (call_->op == "SUM" || call_->op == "AVG") {
    if (v.type() == DataType::kInt && !is_real_) {
      sum_int_ += v.int_value();
    } else {
      DS_ASSIGN_OR_RETURN(double d, v.AsReal());
      if (!is_real_) {
        sum_real_ = static_cast<double>(sum_int_);
        is_real_ = true;
      }
      sum_real_ += d;
    }
    return Status::OK();
  }
  if (call_->op == "MIN" || call_->op == "MAX") {
    if (!has_extreme_) {
      extreme_ = v;
      has_extreme_ = true;
    } else {
      int c = Value::Compare(v, extreme_);
      if ((call_->op == "MIN" && c < 0) || (call_->op == "MAX" && c > 0)) {
        extreme_ = v;
      }
    }
    return Status::OK();
  }
  return Status::Internal("unknown aggregate " + call_->op);
}

bool AggState::FoldsExactly(const Value& v) const {
  return v.is_null() || call_->op == "COUNT" || v.type() == DataType::kInt;
}

bool AggState::Retract(const Value& v) {
  if (v.is_null()) return true;
  if (!FoldsExactly(v) || is_real_) return false;
  if (call_->op == "MIN" || call_->op == "MAX") {
    if (!has_extreme_ || Value::Compare(v, extreme_) == 0) return false;
  } else if (call_->op == "SUM" || call_->op == "AVG") {
    sum_int_ -= v.int_value();
  }
  --count_;
  return true;
}

void AggState::Merge(const AggState& other) {
  count_ += other.count_;
  if (is_real_ || other.is_real_) {
    double incoming =
        other.is_real_ ? other.sum_real_ : static_cast<double>(other.sum_int_);
    if (!is_real_) {
      sum_real_ = static_cast<double>(sum_int_);
      is_real_ = true;
    }
    sum_real_ += incoming;
  } else {
    sum_int_ += other.sum_int_;
  }
  if (other.has_extreme_) {
    if (!has_extreme_) {
      extreme_ = other.extreme_;
      has_extreme_ = true;
    } else {
      // Strict comparison, like UpdateValue: the later partial only wins on a
      // genuine improvement, so compare-equal ties keep the earlier extreme.
      int c = Value::Compare(other.extreme_, extreme_);
      if ((call_->op == "MIN" && c < 0) || (call_->op == "MAX" && c > 0)) {
        extreme_ = other.extreme_;
      }
    }
  }
}

Value AggState::Finalize() const {
  if (call_->op == "COUNT") return Value::Int(count_);
  if (count_ == 0) return Value::Null();
  if (call_->op == "SUM") {
    return is_real_ ? Value::Real(sum_real_) : Value::Int(sum_int_);
  }
  if (call_->op == "AVG") {
    double total = is_real_ ? sum_real_ : static_cast<double>(sum_int_);
    return Value::Real(total / static_cast<double>(count_));
  }
  return extreme_;  // MIN / MAX
}

}  // namespace dataspread
