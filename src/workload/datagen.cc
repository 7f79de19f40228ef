#include "workload/datagen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "workload/tpcds.h"

namespace sc::workload {

namespace {

using engine::Column;
using engine::Table;
using engine::TablePtr;

TablePtr MakeDateDim(const DataGenOptions& options) {
  std::vector<std::int64_t> sk, year, moy, dom, qoy;
  std::vector<std::string> day_name;
  static const char* kDays[] = {"Sunday",   "Monday", "Tuesday", "Wednesday",
                                "Thursday", "Friday", "Saturday"};
  std::int64_t next_sk = 2450000;  // TPC-DS-style surrogate keys.
  for (std::int64_t y = 0; y < options.num_years; ++y) {
    for (std::int64_t m = 1; m <= 12; ++m) {
      for (std::int64_t d = 1; d <= 28; ++d) {  // uniform months, simple
        sk.push_back(next_sk);
        year.push_back(options.first_year + y);
        moy.push_back(m);
        dom.push_back(d);
        qoy.push_back((m - 1) / 3 + 1);
        day_name.push_back(kDays[next_sk % 7]);
        ++next_sk;
      }
    }
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(sk)));
  cols.push_back(Column::FromInts(std::move(year)));
  cols.push_back(Column::FromInts(std::move(moy)));
  cols.push_back(Column::FromInts(std::move(dom)));
  cols.push_back(Column::FromInts(std::move(qoy)));
  cols.push_back(Column::FromStrings(std::move(day_name)));
  return std::make_shared<Table>(DateDimSchema(), std::move(cols));
}

TablePtr MakeItem(std::int64_t rows, Rng& rng) {
  std::vector<std::int64_t> sk(rows), brand(rows), cls(rows), cat(rows),
      manu(rows);
  std::vector<double> price(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    sk[r] = r + 1;
    brand[r] = rng.UniformInt(1, 1000);
    cls[r] = rng.UniformInt(1, 100);
    cat[r] = rng.UniformInt(1, 10);
    manu[r] = rng.UniformInt(1, 500);
    price[r] = rng.UniformDouble(0.5, 300.0);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(sk)));
  cols.push_back(Column::FromInts(std::move(brand)));
  cols.push_back(Column::FromInts(std::move(cls)));
  cols.push_back(Column::FromInts(std::move(cat)));
  cols.push_back(Column::FromInts(std::move(manu)));
  cols.push_back(Column::FromDoubles(std::move(price)));
  return std::make_shared<Table>(ItemSchema(), std::move(cols));
}

TablePtr MakeCustomer(std::int64_t rows, Rng& rng) {
  std::vector<std::int64_t> sk(rows), by(rows), bm(rows), addr(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    sk[r] = r + 1;
    by[r] = rng.UniformInt(1930, 2000);
    bm[r] = rng.UniformInt(1, 12);
    addr[r] = rng.UniformInt(1, rows);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(sk)));
  cols.push_back(Column::FromInts(std::move(by)));
  cols.push_back(Column::FromInts(std::move(bm)));
  cols.push_back(Column::FromInts(std::move(addr)));
  return std::make_shared<Table>(CustomerSchema(), std::move(cols));
}

TablePtr MakeStore(std::int64_t rows, Rng& rng) {
  static const char* kStates[] = {"TN", "CA", "IL", "TX", "NY", "WA"};
  std::vector<std::int64_t> sk(rows), emp(rows), floor(rows);
  std::vector<std::string> state(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    sk[r] = r + 1;
    emp[r] = rng.UniformInt(50, 300);
    floor[r] = rng.UniformInt(5000, 10000000);
    state[r] = kStates[rng.UniformInt(0, 5)];
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(sk)));
  cols.push_back(Column::FromStrings(std::move(state)));
  cols.push_back(Column::FromInts(std::move(emp)));
  cols.push_back(Column::FromInts(std::move(floor)));
  return std::make_shared<Table>(StoreSchema(), std::move(cols));
}

TablePtr MakePromotion(std::int64_t rows, Rng& rng) {
  std::vector<std::int64_t> sk(rows), email(rows), tv(rows);
  std::vector<double> cost(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    sk[r] = r + 1;
    email[r] = rng.Bernoulli(0.5) ? 1 : 0;
    tv[r] = rng.Bernoulli(0.3) ? 1 : 0;
    cost[r] = rng.UniformDouble(100.0, 5000.0);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(sk)));
  cols.push_back(Column::FromInts(std::move(email)));
  cols.push_back(Column::FromInts(std::move(tv)));
  cols.push_back(Column::FromDoubles(std::move(cost)));
  return std::make_shared<Table>(PromotionSchema(), std::move(cols));
}

TablePtr MakeSales(const std::string& prefix, std::int64_t rows,
                   const Table& date_dim, std::int64_t items,
                   std::int64_t customers, std::int64_t stores,
                   std::int64_t promos, Rng& rng) {
  const auto& date_sks = date_dim.column("d_date_sk").ints();
  std::vector<std::int64_t> date(rows), item(rows), cust(rows), store(rows),
      promo(rows), qty(rows);
  std::vector<double> price(rows), ext(rows), profit(rows);
  const std::int64_t num_dates = static_cast<std::int64_t>(date_sks.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    date[r] = date_sks[static_cast<std::size_t>(
        rng.UniformInt(0, num_dates - 1))];
    item[r] = rng.Zipf(items, 1.1);  // skewed item popularity
    cust[r] = rng.UniformInt(1, customers);
    store[r] = rng.UniformInt(1, stores);
    promo[r] = rng.UniformInt(1, promos);
    qty[r] = rng.UniformInt(1, 100);
    price[r] = rng.UniformDouble(0.5, 200.0);
    ext[r] = price[r] * static_cast<double>(qty[r]);
    profit[r] = ext[r] * rng.UniformDouble(-0.2, 0.4);
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(date)));
  cols.push_back(Column::FromInts(std::move(item)));
  cols.push_back(Column::FromInts(std::move(cust)));
  cols.push_back(Column::FromInts(std::move(store)));
  cols.push_back(Column::FromInts(std::move(promo)));
  cols.push_back(Column::FromInts(std::move(qty)));
  cols.push_back(Column::FromDoubles(std::move(price)));
  cols.push_back(Column::FromDoubles(std::move(ext)));
  cols.push_back(Column::FromDoubles(std::move(profit)));
  return std::make_shared<Table>(SalesSchema(prefix), std::move(cols));
}

}  // namespace

RowCounts RowCountsFor(const DataGenOptions& options) {
  const double s = options.scale;
  RowCounts counts;
  counts.date_dim = options.num_years * 12 * 28;
  counts.item = static_cast<std::int64_t>(std::llround(300 * std::sqrt(s))) + 20;
  counts.customer =
      static_cast<std::int64_t>(std::llround(500 * std::sqrt(s))) + 20;
  counts.store = 12;
  counts.promotion = 50;
  counts.sales_per_channel =
      static_cast<std::int64_t>(std::llround(20000 * s));
  return counts;
}

std::map<std::string, engine::TablePtr> GenerateTpcdsData(
    const DataGenOptions& options) {
  Rng rng(options.seed);
  const RowCounts counts = RowCountsFor(options);
  std::map<std::string, engine::TablePtr> tables;
  TablePtr date_dim = MakeDateDim(options);
  tables["date_dim"] = date_dim;
  tables["item"] = MakeItem(counts.item, rng);
  tables["customer"] = MakeCustomer(counts.customer, rng);
  tables["store"] = MakeStore(counts.store, rng);
  tables["promotion"] = MakePromotion(counts.promotion, rng);
  for (const char* fact : {"store_sales", "catalog_sales", "web_sales"}) {
    tables[fact] = MakeSales(ChannelPrefix(fact), counts.sales_per_channel,
                             *date_dim, counts.item, counts.customer,
                             counts.store, counts.promotion, rng);
  }
  return tables;
}

namespace {

/// Zero-padded so the sorted string order equals the numeric order, and
/// long enough (25 chars) to defeat SSO — every plain value carries a
/// heap block, which is exactly the footprint dictionary encoding wins
/// back.
std::string CategoryName(std::int64_t i) {
  std::string digits = std::to_string(i);
  return "warehouse_category_" + std::string(6 - digits.size(), '0') +
         std::move(digits);
}

engine::Column CategoryColumn(const engine::Column::DictionaryPtr& dict,
                              std::vector<std::int32_t> codes,
                              bool dictionary_encode) {
  if (dictionary_encode) {
    return Column::FromDictionary(dict, std::move(codes));
  }
  std::vector<std::string> plain;
  plain.reserve(codes.size());
  for (const std::int32_t code : codes) {
    plain.push_back((*dict)[static_cast<std::size_t>(code)]);
  }
  return Column::FromStrings(std::move(plain));
}

}  // namespace

std::int64_t StringCardinalityValues(StringCardinality cardinality) {
  switch (cardinality) {
    case StringCardinality::kLow:
      return 32;
    case StringCardinality::kMedium:
      return 1024;
    case StringCardinality::kHigh:
      return 65536;
  }
  return 1024;
}

std::map<std::string, engine::TablePtr> GenerateStringHeavyData(
    const StringHeavyOptions& options) {
  Rng rng(options.seed);
  const std::int64_t cardinality =
      StringCardinalityValues(options.cardinality);
  const std::int64_t events =
      std::max<std::int64_t>(1, std::llround(60000 * options.scale));

  // One dictionary per logical string domain, shared by both tables:
  // with dictionary_encode on, the fact and dimension category columns
  // carry the same DictionaryPtr object, so joins and aggregates
  // between them stay on the int32-code fast paths.
  std::vector<std::string> domain;
  domain.reserve(static_cast<std::size_t>(cardinality));
  for (std::int64_t i = 0; i < cardinality; ++i) {
    domain.push_back(CategoryName(i));
  }
  const engine::Column::DictionaryPtr dict =
      Column::MakeDictionary(std::move(domain));

  std::vector<std::int32_t> fact_codes(static_cast<std::size_t>(events));
  std::vector<std::int64_t> bucket(static_cast<std::size_t>(events));
  std::vector<std::int64_t> qty(static_cast<std::size_t>(events));
  std::vector<double> amount(static_cast<std::size_t>(events));
  for (std::int64_t r = 0; r < events; ++r) {
    const auto row = static_cast<std::size_t>(r);
    // Zipf-skewed category popularity: a few heavy hitters dominate, so
    // a few join keys own long build chains.
    fact_codes[row] =
        static_cast<std::int32_t>(rng.Zipf(cardinality, 1.2) - 1);
    bucket[row] = rng.UniformInt(0, 31);
    qty[row] = rng.UniformInt(1, 100);
    amount[row] = rng.UniformDouble(0.5, 500.0);
  }

  std::vector<std::int32_t> dim_codes(
      static_cast<std::size_t>(cardinality));
  std::vector<std::string> region(static_cast<std::size_t>(cardinality));
  std::vector<double> weight(static_cast<std::size_t>(cardinality));
  std::vector<std::int64_t> priority(
      static_cast<std::size_t>(cardinality));
  static const char* kRegions[] = {"north", "south", "east",
                                   "west",  "core",  "edge"};
  for (std::int64_t i = 0; i < cardinality; ++i) {
    const auto row = static_cast<std::size_t>(i);
    dim_codes[row] = static_cast<std::int32_t>(i);
    region[row] = kRegions[rng.UniformInt(0, 5)];
    weight[row] = rng.UniformDouble(0.1, 2.0);
    priority[row] = rng.UniformInt(1, 5);
  }

  using engine::DataType;
  using engine::Field;
  using engine::Schema;
  std::map<std::string, engine::TablePtr> tables;
  {
    std::vector<Column> cols;
    cols.push_back(CategoryColumn(dict, std::move(fact_codes),
                                  options.dictionary_encode));
    cols.push_back(Column::FromInts(std::move(bucket)));
    cols.push_back(Column::FromInts(std::move(qty)));
    cols.push_back(Column::FromDoubles(std::move(amount)));
    tables["events"] = std::make_shared<Table>(
        Schema({Field{"category", DataType::kString},
                Field{"bucket", DataType::kInt64},
                Field{"qty", DataType::kInt64},
                Field{"amount", DataType::kFloat64}}),
        std::move(cols));
  }
  {
    std::vector<Column> cols;
    cols.push_back(CategoryColumn(dict, std::move(dim_codes),
                                  options.dictionary_encode));
    cols.push_back(Column::FromStrings(std::move(region)));
    cols.push_back(Column::FromDoubles(std::move(weight)));
    cols.push_back(Column::FromInts(std::move(priority)));
    tables["category_dim"] = std::make_shared<Table>(
        Schema({Field{"category", DataType::kString},
                Field{"region", DataType::kString},
                Field{"weight", DataType::kFloat64},
                Field{"priority", DataType::kInt64}}),
        std::move(cols));
  }
  return tables;
}

}  // namespace sc::workload
