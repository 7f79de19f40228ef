#include "engine/expr.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <type_traits>

namespace sc::engine {

namespace {

std::string OpName(Expr::Op op) {
  switch (op) {
    case Expr::Op::kAdd: return "+";
    case Expr::Op::kSub: return "-";
    case Expr::Op::kMul: return "*";
    case Expr::Op::kDiv: return "/";
    case Expr::Op::kMod: return "%";
    case Expr::Op::kLt: return "<";
    case Expr::Op::kLe: return "<=";
    case Expr::Op::kGt: return ">";
    case Expr::Op::kGe: return ">=";
    case Expr::Op::kEq: return "==";
    case Expr::Op::kNe: return "!=";
    case Expr::Op::kAnd: return "AND";
    case Expr::Op::kOr: return "OR";
    case Expr::Op::kNot: return "NOT";
    case Expr::Op::kNeg: return "-";
  }
  return "?";
}

bool IsComparison(Expr::Op op) {
  switch (op) {
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
    case Expr::Op::kEq:
    case Expr::Op::kNe:
      return true;
    default:
      return false;
  }
}

bool IsLogical(Expr::Op op) {
  return op == Expr::Op::kAnd || op == Expr::Op::kOr || op == Expr::Op::kNot;
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return column_name;
    case Kind::kLiteral:
      return sc::engine::ToString(literal);
    case Kind::kBinary:
      return "(" + left->ToString() + " " + OpName(op) + " " +
             right->ToString() + ")";
    case Kind::kUnary:
      return OpName(op) + "(" + left->ToString() + ")";
  }
  return "?";
}

ExprPtr Col(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->column_name = std::move(name);
  return e;
}

namespace {
ExprPtr MakeLiteral(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}
}  // namespace

ExprPtr Lit(std::int64_t v) { return MakeLiteral(Value{v}); }
ExprPtr Lit(double v) { return MakeLiteral(Value{v}); }
ExprPtr Lit(std::string v) { return MakeLiteral(Value{std::move(v)}); }

ExprPtr Binary(Expr::Op op, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr Add(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kAdd, l, r); }
ExprPtr Sub(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kSub, l, r); }
ExprPtr Mul(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kMul, l, r); }
ExprPtr Div(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kDiv, l, r); }
ExprPtr Mod(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kMod, l, r); }
ExprPtr Lt(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kLt, l, r); }
ExprPtr Le(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kLe, l, r); }
ExprPtr Gt(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kGt, l, r); }
ExprPtr Ge(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kGe, l, r); }
ExprPtr Eq(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kEq, l, r); }
ExprPtr Ne(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kNe, l, r); }
ExprPtr And(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kAnd, l, r); }
ExprPtr Or(ExprPtr l, ExprPtr r) { return Binary(Expr::Op::kOr, l, r); }

ExprPtr Not(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = Expr::Kind::kUnary;
  out->op = Expr::Op::kNot;
  out->left = std::move(e);
  return out;
}

ExprPtr Neg(ExprPtr e) {
  auto out = std::make_shared<Expr>();
  out->kind = Expr::Kind::kUnary;
  out->op = Expr::Op::kNeg;
  out->left = std::move(e);
  return out;
}

DataType ResultType(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      const std::int32_t i = schema.IndexOf(expr.column_name);
      if (i < 0) {
        throw std::invalid_argument("unknown column '" + expr.column_name +
                                    "'");
      }
      return schema.field(static_cast<std::size_t>(i)).type;
    }
    case Expr::Kind::kLiteral:
      return TypeOf(expr.literal);
    case Expr::Kind::kUnary:
      return expr.op == Expr::Op::kNot ? DataType::kInt64
                                       : ResultType(*expr.left, schema);
    case Expr::Kind::kBinary: {
      if (IsComparison(expr.op) || IsLogical(expr.op)) return DataType::kInt64;
      const DataType lt = ResultType(*expr.left, schema);
      const DataType rt = ResultType(*expr.right, schema);
      if (lt == DataType::kString || rt == DataType::kString) {
        throw std::invalid_argument("arithmetic on string column");
      }
      if (expr.op == Expr::Op::kDiv) return DataType::kFloat64;
      if (lt == DataType::kFloat64 || rt == DataType::kFloat64) {
        return DataType::kFloat64;
      }
      return DataType::kInt64;
    }
  }
  throw std::logic_error("ResultType: bad expr kind");
}

// ---------------------------------------------------------------------------
// Vectorized evaluation
//
// The evaluator is column-at-a-time with three result representations:
// a *borrowed* column (scan of an input column — zero copy), an *owned*
// column (computed intermediate), or a *literal* (broadcast scalar,
// never materialized as a column; literal-only subtrees are folded to a
// single scalar). Each operator node dispatches ONCE on the operand
// types and then runs a tight typed loop over the raw vectors — no
// per-row type switch, no per-row Value boxing. Owned int64/double
// intermediates are recycled as the output buffer of their consuming
// node (scratch reuse), so a deep arithmetic tree allocates O(1)
// buffers, not one per node.
// ---------------------------------------------------------------------------

namespace {

/// Result of evaluating a sub-expression: borrowed column, owned column,
/// or broadcast literal. Exactly one alternative is active.
struct EvalOut {
  const Column* borrowed = nullptr;
  std::optional<Column> owned;
  std::optional<Value> literal;

  static EvalOut Borrow(const Column* c) {
    EvalOut e;
    e.borrowed = c;
    return e;
  }
  static EvalOut Own(Column c) {
    EvalOut e;
    e.owned.emplace(std::move(c));
    return e;
  }
  static EvalOut Const(Value v) {
    EvalOut e;
    e.literal.emplace(std::move(v));
    return e;
  }

  bool is_literal() const { return literal.has_value(); }
  const Column& col() const {
    return borrowed != nullptr ? *borrowed : *owned;
  }
  DataType type() const {
    return is_literal() ? TypeOf(*literal) : col().type();
  }
};

// Typed row accessors: the per-row "get" is resolved to a concrete type
// once per operator node, so the compiler sees plain array/constant
// reads inside the loops.
struct IntVecAcc {
  const std::int64_t* p;
  std::int64_t operator()(std::size_t r) const { return p[r]; }
};
struct DblVecAcc {
  const double* p;
  double operator()(std::size_t r) const { return p[r]; }
};
struct IntConstAcc {
  std::int64_t v;
  std::int64_t operator()(std::size_t) const { return v; }
};
struct DblConstAcc {
  double v;
  double operator()(std::size_t) const { return v; }
};
struct StrVecAcc {
  const std::string* p;
  const std::string& operator()(std::size_t r) const { return p[r]; }
};
struct StrDictAcc {
  const std::string* dict;
  const std::int32_t* codes;
  const std::string& operator()(std::size_t r) const {
    return dict[codes[r]];
  }
};
struct StrConstAcc {
  const std::string* v;
  const std::string& operator()(std::size_t) const { return *v; }
};

template <typename Fn>
decltype(auto) WithNumericAcc(const EvalOut& e, Fn&& fn) {
  if (e.is_literal()) {
    if (const auto* i = std::get_if<std::int64_t>(&*e.literal)) {
      return fn(IntConstAcc{*i});
    }
    if (const auto* d = std::get_if<double>(&*e.literal)) {
      return fn(DblConstAcc{*d});
    }
    throw std::invalid_argument("arithmetic on string column");
  }
  const Column& c = e.col();
  switch (c.type()) {
    case DataType::kInt64:
      return fn(IntVecAcc{c.ints().data()});
    case DataType::kFloat64:
      return fn(DblVecAcc{c.doubles().data()});
    case DataType::kString:
      throw std::invalid_argument("arithmetic on string column");
  }
  throw std::logic_error("bad column type");
}

template <typename Fn>
decltype(auto) WithStringAcc(const EvalOut& e, Fn&& fn) {
  if (e.is_literal()) {
    return fn(StrConstAcc{&std::get<std::string>(*e.literal)});
  }
  const Column& c = e.col();
  if (c.dictionary_encoded()) {
    return fn(StrDictAcc{c.dictionary()->data(), c.codes().data()});
  }
  return fn(StrVecAcc{c.strings().data()});
}

/// Claims an operand's owned buffer of the right type and length as the
/// output buffer (scratch reuse), else allocates. Safe even when the
/// claimed buffer is aliased by an accessor: the heap block survives the
/// vector move, and every write to out[r] happens after the reads at r.
std::vector<std::int64_t> ClaimIntScratch(EvalOut* a, EvalOut* b,
                                          std::size_t n) {
  for (EvalOut* e : {a, b}) {
    if (e != nullptr && e->owned.has_value() &&
        e->owned->type() == DataType::kInt64 && e->owned->size() == n) {
      return std::move(*e->owned).TakeInts();
    }
  }
  return std::vector<std::int64_t>(n);
}

std::vector<double> ClaimDblScratch(EvalOut* a, EvalOut* b,
                                    std::size_t n) {
  for (EvalOut* e : {a, b}) {
    if (e != nullptr && e->owned.has_value() &&
        e->owned->type() == DataType::kFloat64 && e->owned->size() == n) {
      return std::move(*e->owned).TakeDoubles();
    }
  }
  return std::vector<double>(n);
}

// ---------------------------------------------------------------------------
// Constant folding (literal-only subtrees evaluate once, not per row)
// ---------------------------------------------------------------------------

Value FoldBinary(Expr::Op op, const Value& a, const Value& b) {
  if (IsComparison(op)) {
    const bool a_str = std::holds_alternative<std::string>(a);
    const bool b_str = std::holds_alternative<std::string>(b);
    if (a_str != b_str) {
      throw std::invalid_argument("comparison of string vs numeric");
    }
    int cmp;
    if (a_str) {
      const auto& sa = std::get<std::string>(a);
      const auto& sb = std::get<std::string>(b);
      cmp = sa < sb ? -1 : (sb < sa ? 1 : 0);
    } else {
      const double da = AsDouble(a);
      const double db = AsDouble(b);
      cmp = da < db ? -1 : (db < da ? 1 : 0);
    }
    bool v = false;
    switch (op) {
      case Expr::Op::kLt: v = cmp < 0; break;
      case Expr::Op::kLe: v = cmp <= 0; break;
      case Expr::Op::kGt: v = cmp > 0; break;
      case Expr::Op::kGe: v = cmp >= 0; break;
      case Expr::Op::kEq: v = cmp == 0; break;
      case Expr::Op::kNe: v = cmp != 0; break;
      default: break;
    }
    return Value{std::int64_t{v ? 1 : 0}};
  }
  if (IsLogical(op)) {
    const bool av = AsDouble(a) != 0;
    const bool bv = AsDouble(b) != 0;
    const bool v = op == Expr::Op::kAnd ? (av && bv) : (av || bv);
    return Value{std::int64_t{v ? 1 : 0}};
  }
  if (std::holds_alternative<std::string>(a) ||
      std::holds_alternative<std::string>(b)) {
    throw std::invalid_argument("arithmetic on string column");
  }
  const bool as_double = op == Expr::Op::kDiv ||
                         std::holds_alternative<double>(a) ||
                         std::holds_alternative<double>(b);
  if (as_double) {
    const double da = AsDouble(a);
    const double db = AsDouble(b);
    switch (op) {
      case Expr::Op::kAdd: return Value{da + db};
      case Expr::Op::kSub: return Value{da - db};
      case Expr::Op::kMul: return Value{da * db};
      case Expr::Op::kDiv: return Value{db != 0 ? da / db : 0.0};
      case Expr::Op::kMod:
        return Value{db != 0 ? std::fmod(da, db) : 0.0};
      default: throw std::logic_error("bad arithmetic op");
    }
  }
  const std::int64_t ia = std::get<std::int64_t>(a);
  const std::int64_t ib = std::get<std::int64_t>(b);
  switch (op) {
    case Expr::Op::kAdd: return Value{ia + ib};
    case Expr::Op::kSub: return Value{ia - ib};
    case Expr::Op::kMul: return Value{ia * ib};
    case Expr::Op::kMod: return Value{ib != 0 ? ia % ib : std::int64_t{0}};
    default: throw std::logic_error("bad arithmetic op");
  }
}

Value FoldUnary(Expr::Op op, const Value& a) {
  if (op == Expr::Op::kNot) {
    return Value{std::int64_t{AsDouble(a) == 0 ? 1 : 0}};
  }
  // kNeg
  if (const auto* i = std::get_if<std::int64_t>(&a)) return Value{-*i};
  return Value{-AsDouble(a)};
}

// ---------------------------------------------------------------------------
// Vectorized kernels (one type dispatch, then a tight loop)
// ---------------------------------------------------------------------------

Column EvalComparison(Expr::Op op, EvalOut& lhs, EvalOut& rhs,
                      std::size_t n) {
  const bool a_str = lhs.type() == DataType::kString;
  const bool b_str = rhs.type() == DataType::kString;
  if (a_str != b_str) {
    throw std::invalid_argument("comparison of string vs numeric");
  }
  std::vector<std::int64_t> out(n);
  // Comparisons go through the same three-way cmp as the scalar path so
  // NaN semantics (cmp == 0) are preserved exactly.
  auto run = [&](auto ga, auto gb) {
    switch (op) {
      case Expr::Op::kLt:
        for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) < gb(r) ? 1 : 0;
        break;
      case Expr::Op::kGt:
        for (std::size_t r = 0; r < n; ++r) out[r] = gb(r) < ga(r) ? 1 : 0;
        break;
      case Expr::Op::kLe:
        for (std::size_t r = 0; r < n; ++r) out[r] = gb(r) < ga(r) ? 0 : 1;
        break;
      case Expr::Op::kGe:
        for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) < gb(r) ? 0 : 1;
        break;
      case Expr::Op::kEq:
        for (std::size_t r = 0; r < n; ++r) {
          out[r] = !(ga(r) < gb(r)) && !(gb(r) < ga(r)) ? 1 : 0;
        }
        break;
      case Expr::Op::kNe:
        for (std::size_t r = 0; r < n; ++r) {
          out[r] = ga(r) < gb(r) || gb(r) < ga(r) ? 1 : 0;
        }
        break;
      default:
        throw std::logic_error("bad comparison op");
    }
  };
  if (a_str) {
    // Dictionary-vs-literal fast path: on a sorted dictionary the
    // literal resolves to one binary search (`lo` = first code not less
    // than it, `hit` = exact member), after which every row comparison
    // is int32-only. Equivalent to the generic three-way string loop:
    // dict[c] < lit <=> c < lo, dict[c] == lit <=> hit && c == lo.
    const EvalOut* col_side = nullptr;
    const EvalOut* lit_side = nullptr;
    bool col_is_lhs = true;
    if (!lhs.is_literal() && lhs.col().dictionary_encoded() &&
        rhs.is_literal()) {
      col_side = &lhs;
      lit_side = &rhs;
    } else if (!rhs.is_literal() && rhs.col().dictionary_encoded() &&
               lhs.is_literal()) {
      col_side = &rhs;
      lit_side = &lhs;
      col_is_lhs = false;
    }
    if (col_side != nullptr) {
      const Column::Dictionary& dict = *col_side->col().dictionary();
      const std::string& lit = std::get<std::string>(*lit_side->literal);
      const std::int32_t lo = static_cast<std::int32_t>(
          std::lower_bound(dict.begin(), dict.end(), lit) - dict.begin());
      const bool hit = static_cast<std::size_t>(lo) < dict.size() &&
                       dict[static_cast<std::size_t>(lo)] == lit;
      const std::int32_t* codes = col_side->col().codes().data();
      // Canonical orientation: column on the left (flip the op when the
      // literal was the lhs).
      Expr::Op cop = op;
      if (!col_is_lhs) {
        switch (op) {
          case Expr::Op::kLt: cop = Expr::Op::kGt; break;
          case Expr::Op::kGt: cop = Expr::Op::kLt; break;
          case Expr::Op::kLe: cop = Expr::Op::kGe; break;
          case Expr::Op::kGe: cop = Expr::Op::kLe; break;
          default: break;  // kEq / kNe are symmetric
        }
      }
      switch (cop) {
        case Expr::Op::kLt:
          for (std::size_t r = 0; r < n; ++r) out[r] = codes[r] < lo;
          break;
        case Expr::Op::kLe:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = codes[r] < lo || (hit && codes[r] == lo);
          }
          break;
        case Expr::Op::kGt:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = !(codes[r] < lo || (hit && codes[r] == lo));
          }
          break;
        case Expr::Op::kGe:
          for (std::size_t r = 0; r < n; ++r) out[r] = !(codes[r] < lo);
          break;
        case Expr::Op::kEq:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = hit && codes[r] == lo;
          }
          break;
        case Expr::Op::kNe:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = !(hit && codes[r] == lo);
          }
          break;
        default:
          throw std::logic_error("bad comparison op");
      }
      return Column::FromInts(std::move(out));
    }
    WithStringAcc(lhs, [&](auto ga) {
      WithStringAcc(rhs, [&](auto gb) { run(ga, gb); });
    });
  } else {
    WithNumericAcc(lhs, [&](auto ga) {
      WithNumericAcc(rhs, [&](auto gb) { run(ga, gb); });
    });
  }
  return Column::FromInts(std::move(out));
}

Column EvalLogical(Expr::Op op, EvalOut& lhs, EvalOut& rhs,
                   std::size_t n) {
  std::vector<std::int64_t> out(n);
  // The scalar path only type-checked logical operands per row, so an
  // empty input never threw regardless of operand types; dispatch on
  // the accessors only when there are rows to read.
  if (n == 0) return Column::FromInts(std::move(out));
  WithNumericAcc(lhs, [&](auto ga) {
    WithNumericAcc(rhs, [&](auto gb) {
      if (op == Expr::Op::kAnd) {
        for (std::size_t r = 0; r < n; ++r) {
          out[r] = (ga(r) != 0 && gb(r) != 0) ? 1 : 0;
        }
      } else {
        for (std::size_t r = 0; r < n; ++r) {
          out[r] = (ga(r) != 0 || gb(r) != 0) ? 1 : 0;
        }
      }
    });
  });
  return Column::FromInts(std::move(out));
}

Column EvalArithmetic(Expr::Op op, EvalOut& lhs, EvalOut& rhs,
                      std::size_t n) {
  return WithNumericAcc(lhs, [&](auto ga) {
    return WithNumericAcc(rhs, [&](auto gb) -> Column {
      constexpr bool both_int =
          std::is_same_v<decltype(ga(std::size_t{0})), std::int64_t> &&
          std::is_same_v<decltype(gb(std::size_t{0})), std::int64_t>;
      if constexpr (both_int) {
        if (op != Expr::Op::kDiv) {
          std::vector<std::int64_t> out = ClaimIntScratch(&lhs, &rhs, n);
          switch (op) {
            case Expr::Op::kAdd:
              for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) + gb(r);
              break;
            case Expr::Op::kSub:
              for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) - gb(r);
              break;
            case Expr::Op::kMul:
              for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) * gb(r);
              break;
            case Expr::Op::kMod:
              for (std::size_t r = 0; r < n; ++r) {
                const std::int64_t b = gb(r);
                out[r] = b != 0 ? ga(r) % b : 0;
              }
              break;
            default:
              throw std::logic_error("bad arithmetic op");
          }
          return Column::FromInts(std::move(out));
        }
      }
      std::vector<double> out = ClaimDblScratch(&lhs, &rhs, n);
      switch (op) {
        case Expr::Op::kAdd:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = static_cast<double>(ga(r)) + static_cast<double>(gb(r));
          }
          break;
        case Expr::Op::kSub:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = static_cast<double>(ga(r)) - static_cast<double>(gb(r));
          }
          break;
        case Expr::Op::kMul:
          for (std::size_t r = 0; r < n; ++r) {
            out[r] = static_cast<double>(ga(r)) * static_cast<double>(gb(r));
          }
          break;
        case Expr::Op::kDiv:
          for (std::size_t r = 0; r < n; ++r) {
            const double b = static_cast<double>(gb(r));
            out[r] = b != 0 ? static_cast<double>(ga(r)) / b : 0.0;
          }
          break;
        case Expr::Op::kMod:
          for (std::size_t r = 0; r < n; ++r) {
            const double b = static_cast<double>(gb(r));
            out[r] = b != 0 ? std::fmod(static_cast<double>(ga(r)), b) : 0.0;
          }
          break;
        default:
          throw std::logic_error("bad arithmetic op");
      }
      return Column::FromDoubles(std::move(out));
    });
  });
}

Column EvalUnary(Expr::Op op, EvalOut& child, std::size_t n) {
  if (op == Expr::Op::kNot) {
    std::vector<std::int64_t> out(n);
    // Per-row type checking in the scalar path: empty inputs never
    // threw, whatever the operand type.
    if (n == 0) return Column::FromInts(std::move(out));
    WithNumericAcc(child, [&](auto ga) {
      for (std::size_t r = 0; r < n; ++r) out[r] = ga(r) == 0 ? 1 : 0;
    });
    return Column::FromInts(std::move(out));
  }
  // kNeg. The scalar path negated int64 columns as int64 and everything
  // else through per-row NumericAt (double), so an empty non-int column
  // yields an empty float64 column without a type check.
  if (n == 0) {
    return child.type() == DataType::kInt64
               ? Column::FromInts({})
               : Column::FromDoubles({});
  }
  return WithNumericAcc(child, [&](auto ga) -> Column {
    if constexpr (std::is_same_v<decltype(ga(std::size_t{0})),
                                 std::int64_t>) {
      std::vector<std::int64_t> out = ClaimIntScratch(&child, nullptr, n);
      for (std::size_t r = 0; r < n; ++r) out[r] = -ga(r);
      return Column::FromInts(std::move(out));
    } else {
      std::vector<double> out = ClaimDblScratch(&child, nullptr, n);
      for (std::size_t r = 0; r < n; ++r) out[r] = -ga(r);
      return Column::FromDoubles(std::move(out));
    }
  });
}

EvalOut EvalNode(const Expr& expr, const Table& input) {
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      return EvalOut::Borrow(&input.column(expr.column_name));
    case Expr::Kind::kLiteral:
      return EvalOut::Const(expr.literal);
    case Expr::Kind::kUnary: {
      EvalOut child = EvalNode(*expr.left, input);
      if (child.is_literal()) {
        return EvalOut::Const(FoldUnary(expr.op, *child.literal));
      }
      return EvalOut::Own(EvalUnary(expr.op, child, input.num_rows()));
    }
    case Expr::Kind::kBinary: {
      EvalOut lhs = EvalNode(*expr.left, input);
      EvalOut rhs = EvalNode(*expr.right, input);
      if (lhs.is_literal() && rhs.is_literal()) {
        return EvalOut::Const(FoldBinary(expr.op, *lhs.literal,
                                         *rhs.literal));
      }
      const std::size_t n = input.num_rows();
      if (IsComparison(expr.op)) {
        return EvalOut::Own(EvalComparison(expr.op, lhs, rhs, n));
      }
      if (IsLogical(expr.op)) {
        return EvalOut::Own(EvalLogical(expr.op, lhs, rhs, n));
      }
      return EvalOut::Own(EvalArithmetic(expr.op, lhs, rhs, n));
    }
  }
  throw std::logic_error("Eval: bad expr kind");
}

/// Broadcasts a folded literal to a full column (only at the evaluator
/// boundary — inner nodes never materialize literals).
Column BroadcastLiteral(const Value& v, std::size_t n) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return Column::FromInts(std::vector<std::int64_t>(n, *i));
  }
  if (const auto* d = std::get_if<double>(&v)) {
    return Column::FromDoubles(std::vector<double>(n, *d));
  }
  return Column::FromStrings(
      std::vector<std::string>(n, std::get<std::string>(v)));
}

}  // namespace

Column EvalExpr(const Expr& expr, const Table& input) {
  EvalOut out = EvalNode(expr, input);
  if (out.is_literal()) return BroadcastLiteral(*out.literal,
                                                input.num_rows());
  if (out.borrowed != nullptr) return *out.borrowed;  // copy, as before
  return std::move(*out.owned);
}

EvalRef EvalExprBorrow(const Expr& expr, const Table& input) {
  EvalOut out = EvalNode(expr, input);
  if (out.borrowed != nullptr) return EvalRef(out.borrowed);
  if (out.is_literal()) {
    return EvalRef(BroadcastLiteral(*out.literal, input.num_rows()));
  }
  return EvalRef(std::move(*out.owned));
}

void CollectColumns(const Expr& expr, ColumnSet* out) {
  if (expr.kind == Expr::Kind::kColumn) out->insert(expr.column_name);
  if (expr.left != nullptr) CollectColumns(*expr.left, out);
  if (expr.right != nullptr) CollectColumns(*expr.right, out);
}

}  // namespace sc::engine
