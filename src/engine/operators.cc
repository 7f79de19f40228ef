#include "engine/operators.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/fnv.h"
#include "engine/morsel.h"

namespace sc::engine {

namespace {

constexpr std::uint32_t kNoRow = std::numeric_limits<std::uint32_t>::max();

std::vector<const Column*> ResolveColumns(
    const Table& table, const std::vector<std::string>& names) {
  std::vector<const Column*> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.push_back(&table.column(name));
  }
  return out;
}

/// Column-at-a-time FNV-1a hashes over the raw key values of rows
/// [begin, end), written into the caller-owned buffer (h[r] for r in the
/// range): the typed replacement for the scalar reference's per-row
/// EncodeKey string (which allocated one std::string per input row).
/// Doubles hash by bit pattern, strings by length + bytes; hash
/// collisions are resolved by KeyRowsEqual, never trusted. The range
/// form is the morsel body: concurrent morsels hash disjoint row ranges
/// of one shared buffer.
///
/// `code_keys` selects the dictionary fast path for string columns:
/// hash the int32 code instead of the string bytes. Hashes must agree
/// between a join's build and probe side, so the caller may only set it
/// after proving every string key column (on both sides) carries the
/// same dictionary object — see SharedDictStringKeys. An encoded column
/// hashed WITHOUT the flag hashes its decoded strings, staying
/// compatible with a plain other side.
void HashKeyRowsRange(const std::vector<const Column*>& cols,
                      std::size_t begin, std::size_t end, std::uint64_t* h,
                      bool code_keys) {
  for (std::size_t r = begin; r < end; ++r) h[r] = kFnvOffset;
  for (const Column* c : cols) {
    switch (c->type()) {
      case DataType::kInt64: {
        const std::int64_t* v = c->ints().data();
        for (std::size_t r = begin; r < end; ++r) FnvMixInt(&h[r], v[r]);
        break;
      }
      case DataType::kFloat64: {
        const double* v = c->doubles().data();
        for (std::size_t r = begin; r < end; ++r) {
          FnvMixDouble(&h[r], v[r]);
        }
        break;
      }
      case DataType::kString: {
        if (c->dictionary_encoded()) {
          const std::int32_t* v = c->codes().data();
          if (code_keys) {
            for (std::size_t r = begin; r < end; ++r) {
              FnvMixInt(&h[r], v[r]);
            }
          } else {
            const std::string* dict = c->dictionary()->data();
            for (std::size_t r = begin; r < end; ++r) {
              FnvMixString(&h[r], dict[v[r]]);
            }
          }
        } else {
          const std::string* v = c->strings().data();
          for (std::size_t r = begin; r < end; ++r) {
            FnvMixString(&h[r], v[r]);
          }
        }
        break;
      }
    }
  }
}

/// True iff the key lists contain at least one string column and every
/// string column pair shares one dictionary object — the precondition
/// for hashing string keys as int32 codes on both sides. Pass the same
/// list twice for single-table (aggregate) keys.
bool SharedDictStringKeys(const std::vector<const Column*>& a,
                          const std::vector<const Column*>& b) {
  bool any_string = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k]->type() != DataType::kString) continue;
    any_string = true;
    if (!a[k]->dictionary_encoded() ||
        a[k]->dictionary() != b[k]->dictionary()) {
      return false;
    }
  }
  return any_string;
}

/// Counts a cross-dictionary fallback when hashing without `code_keys`
/// would decode a dictionary-encoded string key column.
void CountDecodedKeyFallback(const std::vector<const Column*>& a,
                             const std::vector<const Column*>& b,
                             bool code_keys) {
  if (code_keys) return;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k]->dictionary_encoded() || b[k]->dictionary_encoded()) {
      CountCrossDictionaryFallback();
      return;
    }
  }
}

/// HashKeyRows buffer that recycles allocations through the current
/// MorselContext's scratch pool (satellite: morsels of one node reuse
/// hash buffers instead of growing fresh vectors per operator call).
class HashBuffer {
 public:
  HashBuffer(MorselContext* context, std::size_t n) : context_(context) {
    if (context_ != nullptr) {
      buffer_ = context_->BorrowHashBuffer(n);
    } else {
      buffer_.resize(n);
    }
  }
  ~HashBuffer() {
    if (context_ != nullptr) {
      context_->ReturnHashBuffer(std::move(buffer_));
    }
  }
  HashBuffer(const HashBuffer&) = delete;
  HashBuffer& operator=(const HashBuffer&) = delete;

  std::uint64_t* data() { return buffer_.data(); }
  std::uint64_t operator[](std::size_t i) const { return buffer_[i]; }

 private:
  MorselContext* context_;
  std::vector<std::uint64_t> buffer_;
};

/// Typed composite-key equality between row `ra` of key set `a` and row
/// `rb` of key set `b`. Doubles compare by bit pattern, preserving the
/// encoded-key semantics of the scalar reference (-0.0 != 0.0 and
/// NaN == NaN group/join exactly as before).
bool KeyRowsEqual(const std::vector<const Column*>& a, std::size_t ra,
                  const std::vector<const Column*>& b, std::size_t rb) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    switch (a[k]->type()) {
      case DataType::kInt64:
        if (a[k]->ints()[ra] != b[k]->ints()[rb]) return false;
        break;
      case DataType::kFloat64: {
        std::uint64_t bits_a;
        std::uint64_t bits_b;
        std::memcpy(&bits_a, &a[k]->doubles()[ra], sizeof(bits_a));
        std::memcpy(&bits_b, &b[k]->doubles()[rb], sizeof(bits_b));
        if (bits_a != bits_b) return false;
        break;
      }
      case DataType::kString:
        // Same dictionary object => codes compare as the strings do (no
        // flag needed: this check is per-column and always sound, unlike
        // hashing, which must agree across both sides up front).
        if (a[k]->dictionary_encoded() &&
            a[k]->dictionary() == b[k]->dictionary()) {
          if (a[k]->codes()[ra] != b[k]->codes()[rb]) return false;
        } else if (a[k]->GetString(ra) != b[k]->GetString(rb)) {
          return false;
        }
        break;
    }
  }
  return true;
}

std::size_t NextPow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Builds the selection vector of rows where `mask` is non-zero.
std::vector<std::uint32_t> SelectionFromMask(const Column& mask) {
  const std::size_t n = mask.size();
  std::vector<std::uint32_t> sel;
  sel.reserve(n);
  switch (mask.type()) {
    case DataType::kInt64: {
      const std::int64_t* v = mask.ints().data();
      for (std::size_t r = 0; r < n; ++r) {
        if (v[r] != 0) sel.push_back(static_cast<std::uint32_t>(r));
      }
      break;
    }
    case DataType::kFloat64: {
      const double* v = mask.doubles().data();
      for (std::size_t r = 0; r < n; ++r) {
        if (v[r] != 0) sel.push_back(static_cast<std::uint32_t>(r));
      }
      break;
    }
    case DataType::kString:
      if (n > 0) {
        throw std::invalid_argument("NumericAt: string column");
      }
      break;
  }
  return sel;
}

}  // namespace

Table FilterTable(const Table& input, const Expr& predicate) {
  const EvalRef mask = EvalExprBorrow(predicate, input);
  const std::vector<std::uint32_t> sel = SelectionFromMask(mask.col());
  Table out = Table::Empty(input.schema());
  out.GatherRowsFrom(input, sel);
  return out;
}

Table ProjectTable(const Table& input, const std::vector<NamedExpr>& exprs) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(exprs.size());
  columns.reserve(exprs.size());
  for (const NamedExpr& ne : exprs) {
    Column col = EvalExpr(*ne.expr, input);
    fields.push_back(Field{ne.name, col.type()});
    columns.push_back(std::move(col));
  }
  return Table(Schema(std::move(fields)), std::move(columns));
}

Table HashJoinTables(const Table& left, const Table& right,
                     const std::vector<std::string>& left_keys,
                     const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    throw std::invalid_argument("HashJoin: bad key lists");
  }
  const auto lcols = ResolveColumns(left, left_keys);
  const auto rcols = ResolveColumns(right, right_keys);
  for (std::size_t k = 0; k < lcols.size(); ++k) {
    if (lcols[k]->type() != rcols[k]->type()) {
      throw std::invalid_argument("HashJoin: key type mismatch on '" +
                                  left_keys[k] + "'");
    }
  }

  // Output schema: all left fields, plus right fields with fresh names.
  std::vector<Field> fields = left.schema().fields();
  std::vector<std::size_t> right_cols_kept;
  for (std::size_t c = 0; c < right.schema().num_fields(); ++c) {
    const Field& f = right.schema().field(c);
    if (left.schema().Contains(f.name)) continue;  // de-duplicate keys
    fields.push_back(f);
    right_cols_kept.push_back(c);
  }
  Table out = Table::Empty(Schema(std::move(fields)));

  // Both sides hash first (typed FNV over the key columns); the probe
  // side's row count decides the morsel fan-out. With a morsel context
  // installed, hashing itself runs as morsels over disjoint row ranges
  // of shared scratch buffers.
  const std::size_t rn = right.num_rows();
  const std::size_t ln = left.num_rows();
  // Dictionary fast path: when every string key column shares one
  // dictionary object across both sides, hash and compare int32 codes
  // instead of string bytes. Cross-dictionary (or mixed plain/encoded)
  // sides fall back to decoded-string hashing, which is representation-
  // agnostic and therefore always consistent.
  const bool code_keys = SharedDictStringKeys(lcols, rcols);
  CountDecodedKeyFallback(lcols, rcols, code_keys);
  MorselContext* ctx = CurrentMorselContext();
  const std::size_t morsels = ctx != nullptr ? ctx->PlanMorsels(ln) : 1;
  HashBuffer rh(ctx, rn);
  HashBuffer lh(ctx, ln);
  if (morsels > 1) {
    const std::vector<std::size_t> rb = MorselBounds(rn, morsels);
    const std::vector<std::size_t> lb = MorselBounds(ln, morsels);
    ctx->runner()->Run(2 * morsels, [&](std::size_t t) {
      if (t < morsels) {
        HashKeyRowsRange(rcols, rb[t], rb[t + 1], rh.data(), code_keys);
      } else {
        const std::size_t m = t - morsels;
        HashKeyRowsRange(lcols, lb[m], lb[m + 1], lh.data(), code_keys);
      }
    });
  } else {
    HashKeyRowsRange(rcols, 0, rn, rh.data(), code_keys);
    HashKeyRowsRange(lcols, 0, ln, lh.data(), code_keys);
  }

  // Build side: a chained bucket table over the right-row hashes — two
  // flat arrays, zero per-row allocation. Rows are inserted in reverse
  // so each chain lists its rows in ascending right order, preserving
  // the scalar reference's match order per key. Build and probe use this
  // one table at every morsel count; only hashing and the output gather
  // fan out.
  const std::size_t cap = NextPow2(std::max<std::size_t>(rn * 2, 1));
  const std::size_t slot_mask = cap - 1;
  std::vector<std::uint32_t> head(cap, kNoRow);
  std::vector<std::uint32_t> next(rn);
  for (std::size_t r = rn; r > 0;) {
    --r;
    const std::size_t slot = rh[r] & slot_mask;
    next[r] = head[slot];
    head[slot] = static_cast<std::uint32_t>(r);
  }

  // Probe side: collect matching (left, right) row pairs, then gather
  // both sides column-at-a-time instead of appending cell-by-cell.
  std::vector<std::uint32_t> match_left;
  std::vector<std::uint32_t> match_right;
  match_left.reserve(ln);
  match_right.reserve(ln);
  for (std::size_t l = 0; l < ln; ++l) {
    for (std::uint32_t r = head[lh[l] & slot_mask]; r != kNoRow;
         r = next[r]) {
      if (rh[r] == lh[l] && KeyRowsEqual(lcols, l, rcols, r)) {
        match_left.push_back(static_cast<std::uint32_t>(l));
        match_right.push_back(r);
      }
    }
  }

  const std::size_t left_width = left.num_columns();
  const std::size_t out_cols = left_width + right_cols_kept.size();
  auto gather_one = [&](std::size_t c) {
    if (c < left_width) {
      out.mutable_column(c).GatherFrom(left.column(c), match_left);
    } else {
      out.mutable_column(c).GatherFrom(
          right.column(right_cols_kept[c - left_width]), match_right);
    }
  };
  if (morsels > 1 && out_cols > 1) {
    // Columns are independent output vectors — gather them concurrently.
    ctx->runner()->Run(out_cols, gather_one);
  } else {
    for (std::size_t c = 0; c < out_cols; ++c) gather_one(c);
  }
  out.SyncRowCount();
  return out;
}

namespace {

DataType AggOutputType(const AggSpec& spec, const Schema& schema) {
  switch (spec.func) {
    case AggSpec::Func::kCount:
      return DataType::kInt64;
    case AggSpec::Func::kAvg:
      return DataType::kFloat64;
    case AggSpec::Func::kSum: {
      return ResultType(*spec.arg, schema) == DataType::kInt64
                 ? DataType::kInt64
                 : DataType::kFloat64;
    }
    case AggSpec::Func::kMin:
    case AggSpec::Func::kMax:
      return ResultType(*spec.arg, schema);
  }
  return DataType::kFloat64;
}

}  // namespace

Table AggregateTable(const Table& input,
                     const std::vector<std::string>& group_keys,
                     const std::vector<AggSpec>& aggregates) {
  const auto key_cols = ResolveColumns(input, group_keys);
  const std::size_t n = input.num_rows();

  // Pre-evaluate aggregate arguments column-at-a-time (borrowing the
  // input column outright for plain Col(...) arguments).
  std::vector<EvalRef> args(aggregates.size());
  for (std::size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].func != AggSpec::Func::kCount) {
      args[a] = EvalExprBorrow(*aggregates[a].arg, input);
    }
  }

  // Pass 1 — group assignment. An incremental chained hash table over
  // typed FNV key hashes maps every row to a dense group id; groups are
  // numbered in first-occurrence order (the scalar reference's output
  // order). No per-row allocation: the scalar path built a std::string
  // key per row here.
  const bool global = group_keys.empty();
  // Single-table keys: each string key column trivially "shares" its
  // dictionary with itself, so any fully-encoded key set groups on
  // int32 codes.
  const bool code_keys = SharedDictStringKeys(key_cols, key_cols);
  CountDecodedKeyFallback(key_cols, key_cols, code_keys);
  MorselContext* ctx = CurrentMorselContext();
  const std::size_t morsels =
      (!global && ctx != nullptr) ? ctx->PlanMorsels(n) : 1;
  std::vector<std::uint32_t> group_of_row(n);
  std::vector<std::uint32_t> representative;  // first row of each group
  // counts: shared row counts per group (what AggState::count
  // accumulated for every aggregate in the scalar path).
  std::vector<std::int64_t> counts;
  if (global) {
    representative.push_back(0);
    std::fill(group_of_row.begin(), group_of_row.end(), 0u);
    counts.assign(1, static_cast<std::int64_t>(n));
  } else {
    // Key hashing fans out over morsel row ranges; grouping itself is one
    // sequential table at every morsel count.
    HashBuffer hb(ctx, n);
    if (morsels > 1) {
      const std::vector<std::size_t> bounds = MorselBounds(n, morsels);
      ctx->runner()->Run(morsels, [&](std::size_t m) {
        HashKeyRowsRange(key_cols, bounds[m], bounds[m + 1], hb.data(),
                         code_keys);
      });
    } else {
      HashKeyRowsRange(key_cols, 0, n, hb.data(), code_keys);
    }
    const std::uint64_t* h = hb.data();
    const std::size_t cap = NextPow2(std::max<std::size_t>(n * 2, 1));
    const std::size_t slot_mask = cap - 1;
    std::vector<std::uint32_t> head(cap, kNoRow);
    std::vector<std::uint32_t> next_group;
    std::vector<std::uint64_t> group_hash;
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t slot = h[r] & slot_mask;
      std::uint32_t g = head[slot];
      while (g != kNoRow &&
             !(group_hash[g] == h[r] &&
               KeyRowsEqual(key_cols, r, key_cols, representative[g]))) {
        g = next_group[g];
      }
      if (g == kNoRow) {
        g = static_cast<std::uint32_t>(representative.size());
        representative.push_back(static_cast<std::uint32_t>(r));
        group_hash.push_back(h[r]);
        next_group.push_back(head[slot]);
        head[slot] = g;
      }
      group_of_row[r] = g;
    }
    counts.assign(representative.size(), 0);
    for (std::size_t r = 0; r < n; ++r) counts[group_of_row[r]]++;
  }
  const std::size_t num_groups = representative.size();

  // Output schema.
  std::vector<Field> fields;
  for (const std::string& k : group_keys) {
    const std::int32_t i = input.schema().IndexOf(k);
    if (i < 0) throw std::invalid_argument("Aggregate: unknown key " + k);
    fields.push_back(input.schema().field(static_cast<std::size_t>(i)));
  }
  for (const AggSpec& spec : aggregates) {
    fields.push_back(
        Field{spec.output_name, AggOutputType(spec, input.schema())});
  }
  Schema schema(std::move(fields));

  // Group key columns: gather each key's representative rows in bulk.
  std::vector<Column> columns;
  columns.reserve(schema.num_fields());
  for (std::size_t k = 0; k < group_keys.size(); ++k) {
    Column col(key_cols[k]->type());
    col.GatherFrom(*key_cols[k], representative);
    columns.push_back(std::move(col));
  }

  // Pass 2 — one tight typed accumulation loop per aggregate, always a
  // linear row scan accumulating into per-group slots: a linear scan
  // visits each group's rows in ascending row order, so floating-point
  // sums and NaN-sensitive MIN/MAX replay the scalar reference's
  // row-at-a-time fold exactly. Under morsel execution the *aggregates*
  // fan out across lanes (each builds an independent output column)
  // rather than the rows — parallel and bit-identical at once, with
  // every lane streaming its argument column sequentially.
  auto build_aggregate = [&](std::size_t a) -> Column {
    const AggSpec& spec = aggregates[a];
    const DataType out_type = schema.field(group_keys.size() + a).type;
    const std::uint32_t* gid = group_of_row.data();
    switch (spec.func) {
      case AggSpec::Func::kCount:
        return Column::FromInts(
            std::vector<std::int64_t>(counts.begin(), counts.end()));
      case AggSpec::Func::kSum:
      case AggSpec::Func::kAvg: {
        const Column& arg = args[a].col();
        if (arg.type() == DataType::kString && n > 0) {
          throw std::invalid_argument("NumericAt: string column");
        }
        std::vector<double> sum(num_groups, 0.0);
        std::vector<std::int64_t> isum;
        if (arg.type() == DataType::kInt64) {
          isum.assign(num_groups, 0);
          const std::int64_t* v = arg.ints().data();
          for (std::size_t r = 0; r < n; ++r) {
            isum[gid[r]] += v[r];
            sum[gid[r]] += static_cast<double>(v[r]);
          }
        } else if (arg.type() == DataType::kFloat64) {
          const double* v = arg.doubles().data();
          for (std::size_t r = 0; r < n; ++r) sum[gid[r]] += v[r];
        }
        if (spec.func == AggSpec::Func::kAvg) {
          std::vector<double> avg(num_groups);
          for (std::size_t g = 0; g < num_groups; ++g) {
            avg[g] = counts[g] > 0
                         ? sum[g] / static_cast<double>(counts[g])
                         : 0.0;
          }
          return Column::FromDoubles(std::move(avg));
        }
        if (out_type == DataType::kInt64) {
          return Column::FromInts(std::move(isum));
        }
        return Column::FromDoubles(std::move(sum));
      }
      case AggSpec::Func::kMin:
      case AggSpec::Func::kMax: {
        const Column& arg = args[a].col();
        const bool want_min = spec.func == AggSpec::Func::kMin;
        std::vector<char> has(num_groups, 0);
        switch (arg.type()) {
          case DataType::kInt64: {
            std::vector<std::int64_t> best(num_groups, 0);
            const std::int64_t* v = arg.ints().data();
            for (std::size_t r = 0; r < n; ++r) {
              const std::uint32_t g = gid[r];
              if (!has[g]) {
                best[g] = v[r];
                has[g] = 1;
              } else if (want_min ? v[r] < best[g] : best[g] < v[r]) {
                best[g] = v[r];
              }
            }
            return Column::FromInts(std::move(best));
          }
          case DataType::kFloat64: {
            // The replace rule mirrors CompareValues: strictly-less /
            // strictly-greater, so NaNs never replace an incumbent.
            std::vector<double> best(num_groups, 0.0);
            const double* v = arg.doubles().data();
            for (std::size_t r = 0; r < n; ++r) {
              const std::uint32_t g = gid[r];
              if (!has[g]) {
                best[g] = v[r];
                has[g] = 1;
              } else if (want_min ? v[r] < best[g] : best[g] < v[r]) {
                best[g] = v[r];
              }
            }
            return Column::FromDoubles(std::move(best));
          }
          case DataType::kString: {
            if (arg.dictionary_encoded()) {
              // Sorted dictionary => code order is string order, so
              // MIN/MAX fold over int32 codes and the result keeps the
              // input's dictionary (no string copies at all).
              std::vector<std::int32_t> best(num_groups, 0);
              const std::int32_t* v = arg.codes().data();
              for (std::size_t r = 0; r < n; ++r) {
                const std::uint32_t g = gid[r];
                if (!has[g]) {
                  best[g] = v[r];
                  has[g] = 1;
                } else if (want_min ? v[r] < best[g] : best[g] < v[r]) {
                  best[g] = v[r];
                }
              }
              return Column::FromDictionary(arg.dictionary(),
                                            std::move(best));
            }
            std::vector<std::string> best(num_groups);
            const std::string* v = arg.strings().data();
            for (std::size_t r = 0; r < n; ++r) {
              const std::uint32_t g = gid[r];
              if (!has[g]) {
                best[g] = v[r];
                has[g] = 1;
              } else if (want_min ? v[r] < best[g] : best[g] < v[r]) {
                best[g] = v[r];
              }
            }
            return Column::FromStrings(std::move(best));
          }
        }
        break;
      }
    }
    return Column(out_type);
  };
  if (morsels > 1 && aggregates.size() > 1) {
    std::vector<Column> agg_cols;
    agg_cols.reserve(aggregates.size());
    for (std::size_t a = 0; a < aggregates.size(); ++a) {
      agg_cols.emplace_back(schema.field(group_keys.size() + a).type);
    }
    ctx->runner()->Run(aggregates.size(), [&](std::size_t a) {
      agg_cols[a] = build_aggregate(a);
    });
    for (Column& c : agg_cols) columns.push_back(std::move(c));
  } else {
    for (std::size_t a = 0; a < aggregates.size(); ++a) {
      columns.push_back(build_aggregate(a));
    }
  }
  return Table(std::move(schema), std::move(columns));
}

Table SortTable(const Table& input, const std::vector<std::string>& keys,
                const std::vector<bool>& descending) {
  const auto key_cols = ResolveColumns(input, keys);
  std::vector<std::uint32_t> perm(input.num_rows());
  std::iota(perm.begin(), perm.end(), 0u);
  // Typed three-way compare per key — no per-comparison Value boxing
  // (the scalar reference allocated a std::string per string-key
  // comparison through Column::GetValue).
  auto compare_key = [](const Column& c, std::uint32_t a,
                        std::uint32_t b) -> int {
    switch (c.type()) {
      case DataType::kInt64: {
        const std::int64_t va = c.ints()[a];
        const std::int64_t vb = c.ints()[b];
        return va < vb ? -1 : (vb < va ? 1 : 0);
      }
      case DataType::kFloat64: {
        const double va = c.doubles()[a];
        const double vb = c.doubles()[b];
        return va < vb ? -1 : (vb < va ? 1 : 0);
      }
      case DataType::kString: {
        if (c.dictionary_encoded()) {
          // Sorted dictionary: comparing codes compares the strings.
          const std::int32_t va = c.codes()[a];
          const std::int32_t vb = c.codes()[b];
          return va < vb ? -1 : (vb < va ? 1 : 0);
        }
        const std::string& va = c.strings()[a];
        const std::string& vb = c.strings()[b];
        return va < vb ? -1 : (vb < va ? 1 : 0);
      }
    }
    return 0;
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     for (std::size_t k = 0; k < key_cols.size(); ++k) {
                       const int cmp = compare_key(*key_cols[k], a, b);
                       if (cmp != 0) {
                         const bool desc =
                             k < descending.size() && descending[k];
                         return desc ? cmp > 0 : cmp < 0;
                       }
                     }
                     return false;
                   });
  Table out = Table::Empty(input.schema());
  out.GatherRowsFrom(input, perm);
  return out;
}

Table LimitTable(const Table& input, std::int64_t limit) {
  if (limit < 0 ||
      static_cast<std::size_t>(limit) >= input.num_rows()) {
    return input;
  }
  Table out = Table::Empty(input.schema());
  out.AppendRangeFrom(input, 0, static_cast<std::size_t>(limit));
  return out;
}

Table UnionAllTables(const Table& left, const Table& right) {
  if (!(left.schema() == right.schema())) {
    throw std::invalid_argument("UnionAll: schema mismatch");
  }
  Table out = left;
  out.AppendRangeFrom(right, 0, right.num_rows());
  return out;
}

}  // namespace sc::engine
