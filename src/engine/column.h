#ifndef SC_ENGINE_COLUMN_H_
#define SC_ENGINE_COLUMN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/types.h"

namespace sc::engine {

/// A typed columnar vector. Storage is one contiguous std::vector of the
/// native type; only the vector matching `type()` is populated.
///
/// String columns have two representations:
///  - *plain*: one std::string per row (`strings()`), and
///  - *dictionary-encoded*: a shared sorted-unique dictionary plus one
///    int32 code per row (`dictionary()` / `codes()`). Because the
///    dictionary is sorted, codes compare exactly like the strings they
///    stand for, so hash/compare/sort/gather hot paths can run on the
///    codes. The dictionary is shared by shared_ptr: columns produced
///    from the same source carry the *same* dictionary object, which is
///    what join/aggregate fast paths test for. Dictionaries decoded from
///    disk are interned by content (InternDictionary), so tables read
///    separately share one object too.
/// Both representations are logically interchangeable: accessors decode
/// on the fly and operator== compares logical content.
class Column {
 public:
  using Dictionary = std::vector<std::string>;
  using DictionaryPtr = std::shared_ptr<const Dictionary>;

  explicit Column(DataType type) : type_(type) {}

  static Column FromInts(std::vector<std::int64_t> values);
  static Column FromDoubles(std::vector<double> values);
  static Column FromStrings(std::vector<std::string> values);
  /// Dictionary-encoded string column: `dictionary` must be sorted and
  /// unique, every code in [0, dictionary->size()).
  static Column FromDictionary(DictionaryPtr dictionary,
                               std::vector<std::int32_t> codes);
  /// Sorts + uniques `values` into a Dictionary (the canonical form
  /// FromDictionary expects). Workload generators build one dictionary
  /// per logical string domain and share it across tables so joins take
  /// the code path.
  static DictionaryPtr MakeDictionary(std::vector<std::string> values);

  DataType type() const { return type_; }
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Typed accessors; the caller must respect type(). Bounds-checked in
  /// debug builds only (hot path).
  std::int64_t GetInt(std::size_t row) const { return ints_[row]; }
  double GetDouble(std::size_t row) const { return doubles_[row]; }
  const std::string& GetString(std::size_t row) const {
    return dict_ != nullptr
               ? (*dict_)[static_cast<std::size_t>(codes_[row])]
               : strings_[row];
  }

  /// Generic accessors (allocate for strings; use typed paths in loops).
  Value GetValue(std::size_t row) const;
  void AppendValue(const Value& value);

  void AppendInt(std::int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string v);

  /// Appends row `row` of `other` (same type) to this column.
  void AppendFrom(const Column& other, std::size_t row);

  /// Bulk row gather: appends `other`'s rows listed in `rows` (in order)
  /// to this column. One type check + one reserve for the whole batch —
  /// this is the vectorized replacement for per-cell AppendFrom loops in
  /// filter/join/sort materialization. A dictionary-encoded source
  /// gathers int32 codes (and an empty plain destination adopts the
  /// dictionary), so selection/join materialization of encoded columns
  /// never touches the strings.
  void GatherFrom(const Column& other,
                  const std::vector<std::uint32_t>& rows);

  /// Bulk range append: appends `other`'s rows [begin, end) to this
  /// column (memcpy-speed for numeric columns and shared-dictionary
  /// codes).
  void AppendRangeFrom(const Column& other, std::size_t begin,
                       std::size_t end);

  void Reserve(std::size_t n);

  /// Approximate in-memory footprint in bytes (used for Memory Catalog
  /// accounting and node sizes). Plain string columns count the
  /// std::string object array plus each string's heap block (capacity,
  /// not size) — SSO-resident strings contribute no heap block.
  /// Dictionary-encoded columns count 4 bytes per row plus the
  /// dictionary's own footprint: the encoded size is what the knapsack,
  /// grant accounting, and the shared catalog see, so compression
  /// directly buys residency.
  std::int64_t ByteSize() const;

  /// Numeric value of a row as double (throws for string columns).
  double NumericAt(std::size_t row) const;

  /// Logical content equality, representation-agnostic for strings (a
  /// dictionary-encoded column equals its plain decoding). Float64
  /// values compare by bit pattern (NaN == NaN, 0.0 != -0.0), so equal
  /// numeric columns are byte-identical.
  bool operator==(const Column& other) const;

  const std::vector<std::int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  /// Plain-representation rows; empty for dictionary-encoded columns —
  /// callers on string hot paths must check dictionary_encoded() (or go
  /// through GetString, which handles both).
  const std::vector<std::string>& strings() const { return strings_; }

  /// Dictionary representation. `dictionary()` is null for plain
  /// columns; `codes()` is valid iff dictionary_encoded().
  bool dictionary_encoded() const { return dict_ != nullptr; }
  const DictionaryPtr& dictionary() const { return dict_; }
  const std::vector<std::int32_t>& codes() const { return codes_; }

  /// Returns a dictionary-encoded copy of this string column (builds a
  /// sorted-unique dictionary from its values). Already-encoded columns
  /// copy as-is. Throws std::invalid_argument for non-string columns.
  Column DictionaryEncode() const;
  /// Returns a plain copy (decodes if dictionary-encoded).
  Column DecodeDictionary() const;

  /// Process-wide count of dictionary-encoded string columns ever
  /// materialized (explicit encodes, compressed-format reads, and
  /// operator outputs that kept their input's dictionary). Exported as
  /// the sc_dict_columns_total gauge.
  static std::int64_t dict_columns_created();

  /// Content-keyed dictionary interning, so that byte-identical
  /// dictionaries decoded separately (every SCC1 read, warehouse and
  /// spill alike) share one object and operators stay on int32 codes.
  /// Returns a live dictionary registered under `hash` for which
  /// `matches` holds; otherwise registers and returns `build()`. The
  /// process-wide registry holds weak references only, so it never
  /// keeps a dictionary alive. `hash` selects candidates; `matches`
  /// decides, so a hash collision only costs a comparison.
  static DictionaryPtr InternDictionary(
      std::uint64_t hash,
      const std::function<bool(const Dictionary&)>& matches,
      const std::function<Dictionary()>& build);
  /// Test hook: interned dictionaries still alive.
  static std::size_t LiveInternedDictionaries();

  /// Move out the underlying typed storage, leaving the column empty.
  /// The expression evaluator recycles intermediate buffers this way
  /// (scratch reuse) instead of allocating per tree node.
  std::vector<std::int64_t> TakeInts() && { return std::move(ints_); }
  std::vector<double> TakeDoubles() && { return std::move(doubles_); }

 private:
  /// Attaches `dict` (bumps the process-wide dict-column counter).
  void AdoptDictionary(const DictionaryPtr& dict);
  /// Decodes in place to the plain representation (no-op when plain).
  /// The escape hatch for appends that cannot stay on one dictionary.
  void EnsurePlainStrings();
  /// EnsurePlainStrings for rows from another dictionary (or plain
  /// rows): a decay of an encoded column counts as a cross-dictionary
  /// fallback.
  void DecodeForForeignRows();

  DataType type_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  DictionaryPtr dict_;                // non-null iff dictionary-encoded
  std::vector<std::int32_t> codes_;   // valid iff dict_ != nullptr
};

/// Process-wide count of operator calls that left the int32-code path
/// because two string columns did not share one dictionary object: join
/// or group keys hashed as decoded strings, and appends that decayed an
/// encoded column to plain strings. Counted once per call, not per row.
std::int64_t CrossDictionaryFallbacks();
/// Adds one to CrossDictionaryFallbacks().
void CountCrossDictionaryFallback();

}  // namespace sc::engine

#endif  // SC_ENGINE_COLUMN_H_
