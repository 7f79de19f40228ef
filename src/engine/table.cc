#include "engine/table.h"

#include <sstream>
#include <stdexcept>

#include "common/table_printer.h"

namespace sc::engine {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    auto [it, inserted] =
        index_.emplace(fields_[i].name, static_cast<std::int32_t>(i));
    if (!inserted) {
      throw std::invalid_argument("Schema: duplicate field '" +
                                  fields_[i].name + "'");
    }
  }
}

std::int32_t Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  if (schema_.num_fields() != columns_.size()) {
    throw std::invalid_argument("Table: schema/column count mismatch");
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type() != schema_.field(i).type) {
      throw std::invalid_argument("Table: column type mismatch for '" +
                                  schema_.field(i).name + "'");
    }
  }
  SyncRowCount();
}

Table Table::Empty(Schema schema) {
  std::vector<Column> columns;
  columns.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    columns.emplace_back(f.type);
  }
  return Table(std::move(schema), std::move(columns));
}

const Column& Table::column(const std::string& name) const {
  const std::int32_t i = schema_.IndexOf(name);
  if (i < 0) {
    throw std::out_of_range("Table: no column named '" + name + "'");
  }
  return columns_[static_cast<std::size_t>(i)];
}

void Table::AppendRowFrom(const Table& other, std::size_t row) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], row);
  }
  ++num_rows_;
}

void Table::GatherRowsFrom(const Table& other,
                           const std::vector<std::uint32_t>& rows) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].GatherFrom(other.columns_[c], rows);
  }
  num_rows_ += rows.size();
}

void Table::AppendRangeFrom(const Table& other, std::size_t begin,
                            std::size_t end) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRangeFrom(other.columns_[c], begin, end);
  }
  num_rows_ += end - begin;
}

void Table::SyncRowCount() {
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  for (const Column& c : columns_) {
    if (c.size() != num_rows_) {
      throw std::logic_error("Table: ragged columns");
    }
  }
}

std::int64_t Table::ByteSize() const {
  std::int64_t total = 0;
  for (const Column& c : columns_) total += c.ByteSize();
  return total;
}

std::string Table::ToString(std::size_t max_rows) const {
  std::vector<std::string> header;
  for (const Field& f : schema_.fields()) header.push_back(f.name);
  TablePrinter printer(header);
  const std::size_t rows = std::min(max_rows, num_rows_);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (const Column& c : columns_) {
      row.push_back(sc::engine::ToString(c.GetValue(r)));
    }
    printer.AddRow(std::move(row));
  }
  std::ostringstream out;
  printer.Print(out);
  if (rows < num_rows_) {
    out << "... (" << num_rows_ - rows << " more rows)\n";
  }
  return out.str();
}

bool Table::operator==(const Table& other) const {
  return schema_ == other.schema_ && columns_ == other.columns_;
}

bool KeepsColumn(const ColumnSet* columns, const std::string& name,
                 std::size_t index) {
  return columns == nullptr || (columns->empty() && index == 0) ||
         columns->count(name) > 0;
}

TablePtr SelectColumns(TablePtr table, const ColumnSet* columns) {
  const Schema& schema = table->schema();
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < schema.num_fields(); ++i) {
    if (KeepsColumn(columns, schema.field(i).name, i)) kept.push_back(i);
  }
  if (kept.size() == schema.num_fields()) return table;
  std::vector<Field> fields;
  std::vector<Column> selected;
  for (const std::size_t i : kept) {
    fields.push_back(schema.field(i));
    selected.push_back(table->column(i));
  }
  return std::make_shared<const Table>(Schema(std::move(fields)),
                                       std::move(selected));
}

}  // namespace sc::engine
