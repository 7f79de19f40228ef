#ifndef SC_ENGINE_TABLE_H_
#define SC_ENGINE_TABLE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column.h"

namespace sc::engine {

/// A named, typed column slot in a schema.
struct Field {
  std::string name;
  DataType type;

  bool operator==(const Field&) const = default;
};

/// Ordered list of fields. Field names must be unique within a schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  const std::vector<Field>& fields() const { return fields_; }
  std::size_t num_fields() const { return fields_.size(); }
  const Field& field(std::size_t i) const { return fields_[i]; }

  /// Index of the field named `name`, or -1.
  std::int32_t IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const { return IndexOf(name) >= 0; }

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, std::int32_t> index_;
};

/// An immutable-by-convention columnar table: a schema plus one Column per
/// field, all of equal length.
class Table {
 public:
  Table() = default;
  Table(Schema schema, std::vector<Column> columns);

  /// Builds an empty table with the given schema.
  static Table Empty(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  const Column& column(std::size_t i) const { return columns_[i]; }
  Column& mutable_column(std::size_t i) { return columns_[i]; }

  /// Column by name; throws std::out_of_range if absent.
  const Column& column(const std::string& name) const;

  /// Appends row `row` of `other` (same schema) to this table.
  void AppendRowFrom(const Table& other, std::size_t row);

  /// Bulk row gather: appends `other`'s rows listed in `rows` (in order),
  /// column-at-a-time. The vectorized materialization path for selection
  /// vectors (filter) and sort permutations.
  void GatherRowsFrom(const Table& other,
                      const std::vector<std::uint32_t>& rows);

  /// Bulk range append of `other`'s rows [begin, end), column-at-a-time.
  void AppendRangeFrom(const Table& other, std::size_t begin,
                       std::size_t end);

  /// Recomputes num_rows after direct column mutation; throws
  /// std::logic_error if columns disagree on length.
  void SyncRowCount();

  /// Approximate in-memory footprint: sum of column byte sizes.
  std::int64_t ByteSize() const;

  /// First `max_rows` rows as an aligned ASCII table (debugging).
  std::string ToString(std::size_t max_rows = 20) const;

  bool operator==(const Table& other) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  std::size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<const Table>;

/// Names of the columns a reader has to return (scan column pruning).
/// Readers take it as `const ColumnSet*`, where null means every column.
/// An empty set keeps the table's first column, so the result still
/// carries the row count (a COUNT(*) needs rows, not values).
using ColumnSet = std::set<std::string>;

/// True when `columns` keeps the column named `name` at position
/// `index` of its table (see ColumnSet).
bool KeepsColumn(const ColumnSet* columns, const std::string& name,
                 std::size_t index);

/// The columns of `table` that `columns` keeps, in table order. Returns
/// `table` itself, with no copy, when it keeps them all.
TablePtr SelectColumns(TablePtr table, const ColumnSet* columns);

}  // namespace sc::engine

#endif  // SC_ENGINE_TABLE_H_
