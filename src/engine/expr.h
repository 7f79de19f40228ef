#ifndef SC_ENGINE_EXPR_H_
#define SC_ENGINE_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/table.h"

namespace sc::engine {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression tree evaluated column-at-a-time. Comparison and
/// logical operators produce int64 columns of 0/1.
struct Expr {
  enum class Kind { kColumn, kLiteral, kBinary, kUnary };
  enum class Op {
    // Binary arithmetic.
    kAdd, kSub, kMul, kDiv, kMod,
    // Binary comparison.
    kLt, kLe, kGt, kGe, kEq, kNe,
    // Binary logical.
    kAnd, kOr,
    // Unary.
    kNot, kNeg,
  };

  Kind kind;
  // kColumn:
  std::string column_name;
  // kLiteral:
  Value literal = std::int64_t{0};
  // kBinary / kUnary:
  Op op = Op::kAdd;
  ExprPtr left;
  ExprPtr right;

  /// Human-readable rendering for plan dumps.
  std::string ToString() const;
};

/// Builders (free functions keep call sites compact).
ExprPtr Col(std::string name);
ExprPtr Lit(std::int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(std::string v);
ExprPtr Binary(Expr::Op op, ExprPtr left, ExprPtr right);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Mod(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Neg(ExprPtr e);

/// Evaluates `expr` against every row of `input`; the result has
/// input.num_rows() entries. Throws std::invalid_argument on unknown
/// columns or type errors (e.g. arithmetic on strings).
///
/// Evaluation is vectorized: each operator node dispatches once on its
/// operand types and runs a tight typed loop, literal-only subtrees are
/// constant-folded, literals are never materialized as columns inside the
/// tree, and owned intermediate buffers are recycled across nodes.
Column EvalExpr(const Expr& expr, const Table& input);

/// Zero-copy variant of EvalExpr: when the expression is a bare column
/// reference, col() points straight into `input` and nothing is copied;
/// otherwise the result is materialized into owned storage. col() is
/// valid while both `input` and this object are alive (safe to move).
/// Operators use this for masks and aggregate arguments so a plain
/// Col(...) argument costs no column copy.
class EvalRef {
 public:
  EvalRef() = default;
  explicit EvalRef(const Column* external) : external_(external) {}
  explicit EvalRef(Column owned) : storage_(std::move(owned)) {}

  const Column& col() const {
    return external_ != nullptr ? *external_ : *storage_;
  }

 private:
  const Column* external_ = nullptr;
  std::optional<Column> storage_;
};
EvalRef EvalExprBorrow(const Expr& expr, const Table& input);

/// Result type of `expr` over `schema` (static type checking).
DataType ResultType(const Expr& expr, const Schema& schema);

/// Adds the names of the columns `expr` references to `out`.
void CollectColumns(const Expr& expr, ColumnSet* out);

}  // namespace sc::engine

#endif  // SC_ENGINE_EXPR_H_
